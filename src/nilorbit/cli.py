"""Command line front end.

Every command emits a single canonical JSON document (or CSV for censuses)
with the seed in the header, so identical invocations produce byte-identical
output.  Exit codes: 0 success, 1 a verification verdict failed, 2 invalid
input, 3 an enumeration budget was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from . import pairs as pairs_mod
from . import verify as verify_mod
from .counting import first_primes
from .gfmat import BudgetExceededError, PrimeField, freeze, is_nilpotent
from .partitions import (
    a_stat,
    as_bipartition,
    bipartition_key,
    bipartition_to_json,
    enumerate_bipartitions,
    hasse_relations,
    m_stat,
    total,
)


def _emit(args, payload: dict, command: str) -> None:
    doc = {
        "tool": "nilorbit",
        "version": __version__,
        "command": command,
        "seed": args.seed,
        **payload,
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    _write(args.out, text)


def _write(out: Optional[str], text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _partition_cell(parts) -> str:
    return " ".join(str(x) for x in parts)


def cmd_classify(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    p = int(data["p"])
    PrimeField(p)
    x = freeze(data["rows"], p)
    raw_v = data["v"]
    if raw_v and isinstance(raw_v[0], list):
        if len(raw_v) != 1:
            raise ValueError("vector must be flat or a single-row matrix")
        raw_v = raw_v[0]
    v = tuple(int(c) % p for c in raw_v)
    z = pairs_mod.EnhancedPair(x, v, p)
    n = z.n
    if is_nilpotent(x, p):
        bla = pairs_mod.classify(z)
        result = {
            "bpartition": bipartition_to_json(bla),
            "a": a_stat(bla),
            "dim": n * n - a_stat(bla),
            "m": m_stat(bla),
        }
    else:
        inv = pairs_mod.mixed_invariant(z)
        result = {
            "blocks": [
                {"eigenvalue": a, "bpartition": bipartition_to_json(bla)}
                for a, bla in inv.blocks
            ],
            "mu": inv.mu,
            "dim": n * n - sum(a_stat(bla) for _, bla in inv.blocks),
        }
    _emit(args, {"p": p, "result": result}, "classify")
    return 0


def cmd_census(args) -> int:
    field = PrimeField(args.prime)
    table = pairs_mod.census(args.n, field, budget=args.budget)
    n = args.n
    rows = [
        {
            "bpartition": bipartition_to_json(bla),
            "count": count,
            "a": a_stat(bla),
            "dim": n * n - a_stat(bla),
        }
        for bla, count in sorted(table.items(), key=lambda item: bipartition_key(item[0]))
    ]
    if args.format == "csv":
        lines = ["lambda1,lambda2,count,a,dim"]
        for row in rows:
            l1, l2 = row["bpartition"]
            lines.append(
                f"{_partition_cell(l1)},{_partition_cell(l2)},"
                f"{row['count']},{row['a']},{row['dim']}"
            )
        _write(args.out, "\n".join(lines) + "\n")
        return 0
    _emit(args, {"n": n, "p": args.prime, "classes": rows}, "census")
    return 0


def cmd_springer(args) -> int:
    n = args.n
    if args.mu:
        targets = [as_bipartition(json.loads(args.mu))]
        n = total(targets[0])
    else:
        if n is None:
            raise ValueError("springer needs --n or --mu")
        if args.m is None:
            targets = list(enumerate_bipartitions(n))
        else:
            targets = list(enumerate_bipartitions(n, args.m))
    reports = [verify_mod.springer_row(bmu, args.primes) for bmu in targets]
    ok = all(rep["degree_ok"] and rep["leading_ok"] for rep in reports)
    _emit(args, {"n": n, "reports": reports, "ok": ok}, "springer")
    return 0 if ok else 1


def cmd_closure(args) -> int:
    n = args.n
    relations = [
        {"lower": bipartition_to_json(lo), "upper": bipartition_to_json(up)}
        for lo, up in hasse_relations(n)
    ]
    _emit(args, {"n": n, "hasse": relations}, "closure")
    return 0


def cmd_galois(args) -> int:
    n = args.n
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    prime = args.prime if args.prime else first_primes(1, minimum=n + 1)[0]
    steps = [args.m] if args.m is not None else list(range(n + 1))
    rows = verify_mod.covering_degree_rows(n, prime, steps)
    ok = all(row["ok"] for row in rows)
    _emit(args, {"n": n, "p": prime, "rows": rows, "ok": ok}, "galois")
    return 0 if ok else 1


def cmd_slice(args) -> int:
    primes = args.primes or [3, 5, 7]
    rows = verify_mod.slice_report(args.n, primes=tuple(primes))
    ok = all(row["ok"] for row in rows)
    _emit(args, {"n": args.n, "rows": rows, "ok": ok}, "slice")
    return 0 if ok else 1


EXOTIC_CHECKS = ("roots", "slice-dim", "fiber-dim", "z-bound", "twisted-set")


def cmd_exotic(args) -> int:
    n = args.n
    if n < 1:
        raise ValueError(f"the exotic checks need n >= 1, got {n}")
    selected = args.checks or list(EXOTIC_CHECKS)
    rows = []
    if "roots" in selected:
        cap = min(n, 4)
        rows.append(verify_mod.check_row("roots", verify_mod.root_identity_failures(cap), n=cap))
    if "twisted-set" in selected:
        failures = verify_mod.twisted_set_failures(args.primes or [3])
        rows.append(verify_mod.check_row("twisted-set", failures, n=1))
    if "slice-dim" in selected or "fiber-dim" in selected:
        for k in range(1, min(n, 2) + 1):
            rows.extend(verify_mod.exotic_orbit_report(k))
    if "z-bound" in selected and n >= 2:
        counts, estimate, bound, failures = verify_mod.z_bound(args.primes or [3, 5])
        rows.append(
            verify_mod.check_row(
                "z-bound", failures, n=2, counts=counts, dim_estimate=estimate, expected=bound
            )
        )
    if not rows:
        raise ValueError(f"none of the selected checks runs at n={n}")
    ok = all(row["ok"] for row in rows)
    _emit(args, {"n": n, "rows": rows, "ok": ok}, "exotic")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    names = [args.suite]
    if args.suite == "all":  # the exotic suite has no case below n = 1
        names = [name for name in verify_mod.SUITES if name != "exotic" or args.n_max >= 1]
    ok, checks = verify_mod.run_suites(names, args.n_max, seed=args.seed)
    _emit(args, {"suites": names, "n_max": args.n_max, "ok": ok, "checks": checks}, "verify")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilorbit",
        description="Exact orbit classification and point counting over GF(p).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
    common.add_argument("--out", help="write the report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", parents=[common], help="classify a pair from a JSON file")
    c.add_argument("--in", dest="infile", required=True, help='JSON {"p", "rows", "v"}')
    c.set_defaults(func=cmd_classify)

    c = sub.add_parser("census", parents=[common], help="classify every nilpotent pair over GF(p)")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--prime", type=int, required=True)
    c.add_argument("--budget", type=int, default=5_000_000)
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.set_defaults(func=cmd_census)

    c = sub.add_parser("springer", parents=[common], help="fiber count polynomials with verdicts")
    c.add_argument("--n", type=int)
    c.add_argument("--m", type=int)
    c.add_argument("--mu", help="single bipartition as JSON, e.g. [[2,1],[1]]")
    c.add_argument("--primes", type=int, nargs="+")
    c.set_defaults(func=cmd_springer)

    c = sub.add_parser("closure", parents=[common], help="covering relations of the closure order")
    c.add_argument("--n", type=int, required=True)
    c.set_defaults(func=cmd_closure)

    c = sub.add_parser("galois", parents=[common], help="regular semisimple covering degrees")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--m", type=int)
    c.add_argument("--prime", type=int)
    c.set_defaults(func=cmd_galois)

    c = sub.add_parser("slice", parents=[common], help="slice dimension checks for mixed pairs")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--primes", type=int, nargs="+")
    c.set_defaults(func=cmd_slice)

    c = sub.add_parser("exotic", parents=[common], help="symplectic-side dimension checks")
    c.add_argument("--n", type=int, default=2)
    c.add_argument("--primes", type=int, nargs="+")
    c.add_argument("--checks", nargs="+", choices=EXOTIC_CHECKS)
    c.set_defaults(func=cmd_exotic)

    c = sub.add_parser("verify", parents=[common], help="run the invariant suites")
    c.add_argument(
        "--suite",
        choices=verify_mod.SUITES + ("all",),
        required=True,
    )
    c.add_argument("--n-max", type=int, default=3)
    c.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
