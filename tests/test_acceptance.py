"""Acceptance gate: each criterion runs at its stated tolerance.

Every test prints one verdict line.  Criteria 1-5, 7 (roots) and 8 call
the named check functions of `nilorbit.verify` at their own scope; an
empty list of failing cases is a pass.  Criterion 4's special-case product
identity is asserted exactly as stated; it is genuinely false at
(n, m) = (4, 2) and (4, 3) (two independent enumerations agree against
it; see tests/test_flags.py for the pinned true polynomials), so that
single test is expected to stay red.
"""

import json
import subprocess
import sys
import time

from nilorbit import verify
from nilorbit.partitions import enumerate_bipartitions
from nilorbit.verify import exotic_orbit_report, slice_report


def verdict(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_orbit_bijection():
    started = time.time()
    failures = verify.census_orbit_bijection_failures([(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
    sizes = [len(list(enumerate_bipartitions(n))) for n in (1, 2, 3)]
    elapsed = time.time() - started
    ok = not failures and sizes == [2, 5, 10] and elapsed < 60
    assert verdict(1, "orbit bijection via census", ok), (failures, f"elapsed {elapsed:.1f}s")


def test_criterion_2_stabilizer_dimension():
    failures = verify.stabilizer_dimension_failures(4, (2, 3, 5))
    assert verdict(2, "stabilizer dimension a(lambda)", not failures), failures


def test_criterion_3_orbit_dimension_growth():
    started = time.time()
    failures = verify.orbit_dimension_growth_failures(3, (3, 5, 7))
    elapsed = time.time() - started
    ok = not failures and elapsed < 300
    assert verdict(3, "orbit dimension growth", ok), (failures, f"elapsed {elapsed:.1f}s")


def test_criterion_4_fiber_degree_and_leading():
    started = time.time()
    failures = verify.fiber_degree_and_leading_failures(4)
    elapsed = time.time() - started
    ok = not failures and elapsed < 600
    assert verdict(4, "fiber degree and leading coefficient", ok), (
        failures,
        f"elapsed {elapsed:.1f}s",
    )


def test_criterion_4_column_case_product_identity():
    """Exact product identity for ((1^m), (1^{n-m})), n <= 4, as stated.

    Genuinely false at (4,2) and (4,3): the fiber contains extra
    lower-dimensional flag families (independently recounted by raw coset
    enumeration), so this stays red; the analysis lives in the notes.
    """
    failures = [
        ((case["n"], case["m"]), case["got"], case["expected"])
        for case in verify.flag_count_product_case_failures(4)
    ]
    ok = not failures
    verdict(4, "column-case product identity", ok)
    assert ok, f"product identity fails at {failures}"


def test_criterion_5_covering_degree():
    failures = verify.covering_degree_failures(4)
    assert verdict(5, "regular semisimple covering degree", not failures), failures


def test_criterion_6_slice_dimensions():
    rows = [row for n in (1, 2, 3) for row in slice_report(n, primes=(3, 5, 7))]
    equalities = [r for r in rows if r["equality"]]
    bounds = [r for r in rows if not r["equality"]]
    ok = all(r["ok"] for r in rows) and equalities and bounds
    assert verdict(6, "slice dimensions at and off the natural step", ok), rows


def test_criterion_7_exotic_checks():
    started = time.time()
    roots_ok = not verify.root_identity_failures(4)
    orbit_ok = all(row["ok"] for n in (1, 2) for row in exotic_orbit_report(n))
    elapsed = time.time() - started
    ok = roots_ok and orbit_ok and elapsed < 900
    assert verdict(7, "exotic root identities and slice/fiber dims", ok), (
        f"roots {roots_ok}, orbits {orbit_ok}, elapsed {elapsed:.1f}s"
    )


def test_criterion_8_poset_suite():
    failures = (
        verify.closure_partial_order_failures(6)
        + verify.closure_dominance_failures(6)
        + verify.closure_monotone_failures(6)
    )
    assert verdict(8, "closure order poset suite", not failures), failures[:5]


def test_criterion_9_verify_determinism():
    cmd = [
        sys.executable,
        "-m",
        "nilorbit.cli",
        "verify",
        "--suite",
        "all",
        "--n-max",
        "3",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    if ok:
        doc = json.loads(first.stdout)
        ok = doc["ok"] and all(check["ok"] for check in doc["checks"])
    assert verdict(9, "verify determinism and exit status", ok), (
        first.returncode,
        second.returncode,
    )
