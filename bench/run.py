"""Benchmark of the nilorbit command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/nilorbit``.  Each workload
is one ``nilorbit`` command, called in-process through ``nilorbit.cli.main``
in a fresh single-threaded Python process per pass, so set-up time and peak
memory belong to that pass alone.  The seed is passed to the command as
``--seed``; the report body does not depend on it.

``--trace 0`` runs set-up probes and then passes until ``--seconds`` are used
(at least one pass), and reports the medians of the end-to-end metrics.
``--trace 1`` runs one untraced pass and two passes under the outside-in
tracer (``tracer.py``), and reports per-layer metrics: self and inclusive
times of the layers in traced seconds, and deterministic call counts, which
must repeat exactly across the two traced passes.

Every pass is checked: exit code 0, ``ok: true`` on every row and a report
digest (seed removed) equal to the one pinned below.  A failed check, an
exception or a time-budget overrun counts all of a pass's operations as
failed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    ops: int  # check rows (verify, exotic) or reports (springer) per pass
    digest: str  # report body without the seed, pinned at the seed commit


# Why each workload exists (the per-layer metric it isolates):
# enhanced - pairs.orbit_size's numpy stabilizer enumeration (up to 7^9 points);
#            the only numpy- and memory-heavy workload; never calls flags or symplectic.
# springer - flags.slice_count: one MixedClassifier build per unipotent, p^m
#            invariant() reads per build (few builds, many reads).
# fibers   - the count_fiber memo recursion at 7 primes up to 23, cost growing
#            with p; one classifier build per explored line (many builds, one read each).
# exotic   - twisted cosets, isotropic flags and the z-variety on 4x4 gfmat
#            kernels, plus the root identities; never calls pairs or flags.
WORKLOADS = {
    "enhanced": Workload(
        ("verify", "--suite", "enhanced", "--n-max", "3"),
        5,
        "fc535a7058a3a2002f9191a96c8b7bd1be03b8d325d5fc25bf3067a9669f6e10",
    ),
    "springer": Workload(
        ("verify", "--suite", "springer", "--n-max", "3"),
        5,
        "a23e8a0dfe8930a5058dbe8291217288af8770b2abd6db9b45dd88bb6afb3bbc",
    ),
    "fibers": Workload(
        ("springer", "--n", "4", "--m", "4"),
        5,
        "e43f0dad87ab832f81fdb97a6279a0c5e7b0d3288d91f170a0c82cf2be0587c3",
    ),
    "exotic": Workload(
        ("exotic", "--n", "2", "--checks", "roots", "twisted-set", "z-bound"),
        3,
        "e589caac0c90395150c55ee87014a4d06395d635bb3c9e1b7659028831ec406a",
    ),
}

# One thread per numeric library, so a pass uses one CPU.
SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

SETUP_PROBES = 9  # extra processes that only set up, for a steadier setup_s
RUN_BUDGET_S = 170.0  # every run ends well inside 180 s, traced ones too

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class PassFailed(Exception):
    pass


def spawn(mode: str, argv: tuple[str, ...], env: dict, deadline: float) -> dict:
    """Run child.py once and return its record; raise PassFailed if it fails."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassFailed("run time budget exhausted")
    cmd = [sys.executable, str(CHILD), str(ROOT), repr(time.monotonic()), mode, *argv]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{mode} pass exceeded the run time budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


class Tally:
    """Operations attempted and failed over a run, with the first failure."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, run_pass) -> dict | None:
        """Run one workload pass and count its operations; None if it failed."""
        self.attempted += self.workload.ops
        try:
            rec = run_pass()
        except PassFailed as exc:
            self.fail(self.workload.ops, str(exc))
            return None
        if rec.get("exit") != 0 or rec.get("error"):
            self.fail(self.workload.ops, f"exit {rec.get('exit')}: {rec.get('error')}")
            return None
        if rec["ops"] != self.workload.ops or rec["failed_ops"]:
            self.fail(max(rec["failed_ops"], 1), f"{rec['failed_ops']} of {rec['ops']} rows not ok")
            return None
        if rec["digest"] != self.workload.digest:
            self.fail(self.workload.ops, f"report digest {rec['digest']} is not the pinned one")
            return None
        return rec

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        self.problems.append(problem)


def timed_run(workload: Workload, env: dict, seconds: int, deadline: float, tally: Tally):
    """Set-up probes, then untraced passes while the next is expected to end
    within `seconds` (at least one pass)."""
    setups, passes = [], []
    for _ in range(SETUP_PROBES):
        try:
            setups.append(spawn("probe", (), env, deadline)["setup_s"])
        except PassFailed as exc:
            tally.problems.append(f"set-up probe failed: {exc}")
    start = time.monotonic()
    while True:
        began = time.monotonic()
        rec = tally.check(lambda: spawn("pass", workload.argv, env, deadline))
        if rec is not None:
            passes.append(rec)
            setups.append(rec["setup_s"])
        took = time.monotonic() - began
        if rec is None or time.monotonic() + took > start + seconds:
            break
    samples = {name: [rec[name] for rec in passes] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setups
    return samples, passes


def layer_metrics(traced: list[dict], untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced passes, as {name: (value, unit)}.

    Times are means over the traced passes; counts come from the first one
    (the fidelity check has made sure that both have the same counts).
    """
    stats = [rec["trace"]["stats"] for rec in traced]

    def mean(select) -> float:
        return statistics.fmean(select(s) for s in stats)

    def self_s(module: str) -> tuple[float, str]:
        return mean(lambda s: sum(v["self_s"] for k, v in s.items() if k.split(".")[0] == module)), "s"

    def inclusive_s(name: str) -> tuple[float, str]:
        return mean(lambda s: s.get(name, {}).get("inclusive_s", 0.0)), "s"

    def calls(name: str) -> tuple[int, str]:
        return stats[0].get(name, {}).get("calls", 0), "count"

    builds = calls("pairs.MixedClassifier.__init__")[0]
    reads = calls("pairs.MixedClassifier.invariant")[0]
    traced_wall = statistics.fmean(rec["wall_s"] for rec in traced)
    return {
        "gfmat.self_s": self_s("gfmat"),
        "gfmat.mat_mul.calls": calls("gfmat.mat_mul"),
        "gfmat.mat_inv.calls": calls("gfmat.mat_inv"),
        "gfmat.rank.calls": calls("gfmat.rank"),
        "gfmat.jordan_type.calls": calls("gfmat.jordan_type"),
        "gfmat.induced_maps.calls": calls("gfmat.induced_maps"),
        "gfmat.subspace_from_vectors.calls": calls("gfmat.Subspace.from_vectors"),
        "pairs.self_s": self_s("pairs"),
        "pairs.orbit_size.s": inclusive_s("pairs.orbit_size"),
        "pairs.census.s": inclusive_s("pairs.census"),
        "pairs.commutant.calls": calls("pairs.commutant"),
        "pairs.classifier_builds": (builds, "count"),
        "pairs.invariants": (reads, "count"),
        "pairs.invariants_per_build": (reads / builds if builds else 0.0, "ratio"),
        "flags.self_s": self_s("flags"),
        "flags.count_fiber.s": inclusive_s("flags.count_fiber"),
        "flags.count_fiber.calls": calls("flags.count_fiber"),
        "flags.slice_count.s": inclusive_s("flags.slice_count"),
        "flags.springer_report.s": inclusive_s("flags.springer_report"),
        "counting.self_s": self_s("counting"),
        "counting.interpolate.calls": calls("counting.interpolate"),
        "symplectic.self_s": self_s("symplectic"),
        "symplectic.twisted_coset_set.s": inclusive_s("symplectic.twisted_coset_set"),
        "symplectic.z_variety_count.s": inclusive_s("symplectic.z_variety_count"),
        "symplectic.isotropic_flags.s": inclusive_s("symplectic.isotropic_flags"),
        "symplectic.symplectic_transition.calls": calls("symplectic.symplectic_transition"),
        "partitions.self_s": self_s("partitions"),
        "verify.self_s": self_s("verify"),
        "cli.self_s": self_s("cli"),
        "trace.overhead_ratio": (traced_wall / untraced_wall, "ratio"),
        "trace.wall_s": (traced_wall, "s"),
    }


def traced_run(workload: Workload, env: dict, deadline: float, tally: Tally):
    """One untraced pass and two traced passes, with the fidelity checks."""
    untraced = tally.check(lambda: spawn("pass", workload.argv, env, deadline))
    traced = [tally.check(lambda: spawn("trace", workload.argv, env, deadline)) for _ in range(2)]
    if untraced is None or None in traced:
        return None, traced
    counts = [
        {key: s["calls"] for key, s in rec["trace"]["stats"].items()}
        for rec in traced
    ]
    if counts[0] != counts[1]:
        changed = sorted(k for k in counts[0].keys() | counts[1].keys()
                         if counts[0].get(k) != counts[1].get(k))
        tally.fail(workload.ops, f"call counts differ between traced passes: {changed[:10]}")
        return None, traced
    return layer_metrics(traced, untraced["wall_s"]), traced


def span_summary(trace: dict, limit: int = 40) -> list[str]:
    """Spans aggregated by call path: calls and total seconds, heaviest first."""
    spans = trace["spans"]
    paths: list[tuple[str, ...]] = []
    totals: dict[tuple[str, ...], list] = {}
    for name, parent, start, end in spans:
        path = (paths[parent] if parent >= 0 else ()) + (name,)
        paths.append(path)
        entry = totals.setdefault(path, [0, 0.0])
        entry[0] += 1
        entry[1] += end - start
    ranked = sorted(totals.items(), key=lambda item: -item[1][1])[:limit]
    lines = [f"  {'  ' * (len(p) - 1)}{p[-1]:<40} calls={c:<7} {s:10.4f} s"
             for p, (c, s) in sorted(ranked)]
    return lines


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "nilorbit" / "cli.py").is_file():
        print(f"no nilorbit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    argv = workload.argv + ("--seed", str(args.seed))
    workload = Workload(argv, workload.ops, workload.digest)
    env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"}
    deadline = time.monotonic() + RUN_BUDGET_S
    load_before = os.getloadavg()
    tally = Tally(workload)

    try:
        # compiles the package's bytecode; not measured
        numpy_version = spawn("probe", (), env, deadline)["numpy"]
    except PassFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1

    lines = []
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        layers, traced = traced_run(workload, env, deadline, tally)
        if layers is None:
            print("\n".join(tally.problems), file=sys.stderr)
            return 1
        metrics = layers
        lines += [f"{name:<36} {value:>16.6f} {unit}" for name, (value, unit) in metrics.items()]
        lines.append("spans of the first traced pass (path, calls, seconds):")
        lines += span_summary(traced[0]["trace"])
    else:
        samples, passes = timed_run(workload, env, args.seconds, deadline, tally)
        if not passes or not all(samples.values()):
            print("\n".join(tally.problems) or "no pass completed", file=sys.stderr)
            return 1
        for name, unit in END_TO_END.items():
            metrics[name] = (statistics.median(samples[name]), unit)
            lines.append(
                f"{name:<12} median {metrics[name][0]:>12.6f} {unit:<3} "
                f"over {len(samples[name])} samples  [{min(samples[name]):.6f} .. {max(samples[name]):.6f}]"
            )

    environment = {
        "workload": args.workload,
        "argv": list(workload.argv),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    print("environment " + json.dumps(environment))
    print("\n".join(lines))
    print(f"error_rate {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted} operations failed)")
    for problem in tally.problems:
        print(f"problem: {problem}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
