"""Acceptance gate: each criterion runs at its stated tolerance.

Every test prints one verdict line.  Criterion 4's special-case product
identity is asserted exactly as stated; it is genuinely false at
(n, m) = (4, 2) and (4, 3) (two independent enumerations agree against
it; see tests/test_flags.py for the pinned true polynomials), so that
single test is expected to stay red.
"""

import json
import subprocess
import sys
import time
from math import factorial

from nilorbit.counting import CountSeries, growth_exponent
from nilorbit.flags import galois_degree_check, springer_report
from nilorbit.gfmat import PrimeField
from nilorbit.pairs import census, orbit_representative, orbit_size, stab_dim
from nilorbit.partitions import (
    a_stat,
    ah_leq,
    dominance_leq,
    enumerate_bipartitions,
    enumerate_partitions,
    n_stat,
    size,
)
from nilorbit.verify import exotic_orbit_report, slice_report
from nilorbit.counting import gaussian_factorial_poly
from nilorbit.symplectic import root_identity_check, signed_permutations


def verdict(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_orbit_bijection():
    started = time.time()
    expected_sizes = {1: 2, 2: 5, 3: 10}
    ok = True
    for n, p in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]:
        table = census(n, PrimeField(p))
        nonzero = {bla for bla, c in table.items() if c > 0}
        ok = ok and len(nonzero) == expected_sizes[n]
        ok = ok and sorted(nonzero) == sorted(enumerate_bipartitions(n))
        ok = ok and sum(table.values()) == p ** (n * n - n) * p**n
    elapsed = time.time() - started
    ok = ok and elapsed < 60
    assert verdict(1, "orbit bijection via census", ok), f"elapsed {elapsed:.1f}s"


def test_criterion_2_stabilizer_dimension():
    ok = True
    for p in (2, 3, 5):
        for n in range(5):
            for bla in enumerate_bipartitions(n):
                z = orbit_representative(bla, p)
                expected = 2 * (n_stat(bla[0]) + n_stat(bla[1])) + size(bla[1])
                if stab_dim(z) != expected or expected != a_stat(bla):
                    ok = False
    assert verdict(2, "stabilizer dimension a(lambda)", ok)


def test_criterion_3_orbit_dimension_growth():
    started = time.time()
    ok = True
    for n in (1, 2, 3):
        for bla in enumerate_bipartitions(n):
            counts = CountSeries.of(
                [(p, orbit_size(bla, PrimeField(p))) for p in (3, 5, 7)]
            )
            expected = n * n - a_stat(bla)
            if expected == 0:
                if any(c != 1 for _, c in counts.points):
                    ok = False
                continue
            if growth_exponent(counts) != expected:
                ok = False
    elapsed = time.time() - started
    ok = ok and elapsed < 300
    assert verdict(3, "orbit dimension growth", ok), f"elapsed {elapsed:.1f}s"


def test_criterion_4_fiber_degree_and_leading():
    started = time.time()
    ok = True
    for n in range(5):
        for bmu in enumerate_bipartitions(n):
            rep = springer_report(bmu, size(bmu[0]))
            if not (rep.degree_ok and rep.leading_ok):
                ok = False
    elapsed = time.time() - started
    ok = ok and elapsed < 600
    assert verdict(4, "fiber degree and leading coefficient", ok), (
        f"elapsed {elapsed:.1f}s"
    )


def test_criterion_4_column_case_product_identity():
    """Exact product identity for ((1^m), (1^{n-m})), n <= 4, as stated.

    Genuinely false at (4,2) and (4,3): the fiber contains extra
    lower-dimensional flag families (independently recounted by raw coset
    enumeration), so this stays red; the analysis lives in the notes.
    """
    failures = []
    for n in range(5):
        for m in range(n + 1):
            bmu = ((1,) * m, (1,) * (n - m))
            rep = springer_report(bmu, m)
            product = [0] * (
                len(gaussian_factorial_poly(m)) + len(gaussian_factorial_poly(n - m)) - 1
            )
            for i, a in enumerate(gaussian_factorial_poly(m)):
                for j, b in enumerate(gaussian_factorial_poly(n - m)):
                    product[i + j] += a * b
            got = [int(c) for c in rep.polynomial.coefficients]
            got += [0] * (len(product) - len(got))
            if got != product:
                failures.append(((n, m), got, product))
    ok = not failures
    verdict(4, "column-case product identity", ok)
    assert ok, f"product identity fails at {failures}"


def test_criterion_5_covering_degree():
    from nilorbit.counting import first_primes

    ok = True
    for n in (1, 2, 3, 4):
        p = first_primes(1, minimum=n + 1)[0]
        for m in range(n + 1):
            count, expected, good = galois_degree_check(n, m, PrimeField(p))
            ok = ok and good and expected == factorial(m) * factorial(n - m)
    assert verdict(5, "regular semisimple covering degree", ok)


def test_criterion_6_slice_dimensions():
    ok = True
    rows = []
    for n in (1, 2, 3):
        for row in slice_report(n, primes=(3, 5, 7), budget=2_000_000):
            rows.append(row)
            ok = ok and row["ok"]
    equalities = [r for r in rows if r["equality"]]
    bounds = [r for r in rows if not r["equality"]]
    ok = ok and equalities and bounds
    assert verdict(6, "slice dimensions at and off the natural step", ok), rows


def test_criterion_7_exotic_checks():
    started = time.time()
    roots_ok = True
    for n in (1, 2, 3, 4):
        for w in signed_permutations(n):
            if not root_identity_check(w).ok:
                roots_ok = False
    orbit_ok = True
    for n in (1, 2):
        for row in exotic_orbit_report(n):
            orbit_ok = orbit_ok and row["ok"]
    elapsed = time.time() - started
    ok = roots_ok and orbit_ok and elapsed < 900
    assert verdict(7, "exotic root identities and slice/fiber dims", ok), (
        f"roots {roots_ok}, orbits {orbit_ok}, elapsed {elapsed:.1f}s"
    )


def test_criterion_8_poset_suite():
    ok = True
    for n in range(7):
        elems = list(enumerate_bipartitions(n))
        leq = {(a, b): ah_leq(a, b) for a in elems for b in elems}
        for a in elems:
            ok = ok and leq[(a, a)]
            for b in elems:
                if a != b and leq[(a, b)]:
                    ok = ok and not leq[(b, a)]
                    ok = ok and a_stat(a) > a_stat(b)
        for a in elems:
            below_a = [b for b in elems if leq[(b, a)]]
            for b in below_a:
                for c in elems:
                    if leq[(a, c)] and not leq[(b, c)]:
                        ok = False
        for mu in enumerate_partitions(n):
            for la in enumerate_partitions(n):
                if ah_leq(((), mu), ((), la)) != dominance_leq(mu, la):
                    ok = False
    assert verdict(8, "closure order poset suite", ok)


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
