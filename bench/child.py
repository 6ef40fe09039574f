"""One benchmark pass of the nilorbit CLI, run in a fresh process.

    python3 bench/child.py ROOT SPAWNED MODE [CLI ARGS...]

ROOT is the checkout holding ``src/nilorbit``.  SPAWNED is the parent's
``time.monotonic()`` just before it started this process, so the set-up time
covers interpreter start, imports and everything up to the workload call.
MODE is ``probe`` (set up, then stop), ``pass`` (one untraced workload call)
or ``trace`` (one workload call under the outside-in tracer).

The last line of standard output is one JSON record of the pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def report_digest(text: str) -> str:
    """SHA-256 of the canonical report body with the ``seed`` field removed."""
    doc = json.loads(text)
    doc.pop("seed", None)
    body = json.dumps(doc, sort_keys=True, indent=2)
    return hashlib.sha256(body.encode()).hexdigest()


def operations(text: str) -> tuple[int, int]:
    """(attempted, failed): one per check row, or per springer report."""
    doc = json.loads(text)
    if doc["command"] == "verify":
        rows = [row["ok"] is True for row in doc["checks"]]
    elif doc["command"] == "exotic":
        rows = [row["ok"] is True for row in doc["rows"]]
    elif doc["command"] == "springer":
        rows = [r["degree_ok"] is True and r["leading_ok"] is True for r in doc["reports"]]
    else:
        raise ValueError(f"no operation count for command {doc['command']!r}")
    failed = rows.count(False)
    if doc["ok"] is not True and not failed:
        failed = 1
    return len(rows), failed


def main() -> int:
    root, spawned, mode, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3], sys.argv[4:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy
    import nilorbit
    from nilorbit import cli

    if not os.path.abspath(nilorbit.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"nilorbit imported from {nilorbit.__file__}, not from {src}")
    setup_s = time.monotonic() - spawned
    record = {"setup_s": setup_s, "numpy": numpy.__version__}
    if mode == "probe":
        print(json.dumps(record))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install("nilorbit")
    out = io.StringIO()
    code, error = None, None
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:
        error = traceback.format_exc()
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0
    if tracer is not None:
        tracer.restore()
        record["trace"] = tracer.report()

    record.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        exit=code,
        error=error,
    )
    if code is not None:
        text = out.getvalue()
        try:
            record["digest"] = report_digest(text)
            record["ops"], record["failed_ops"] = operations(text)
        except (ValueError, KeyError, TypeError) as exc:
            record["error"] = f"unreadable report: {exc!r}"
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
