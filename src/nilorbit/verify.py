"""Named invariant suites behind the `verify` command.

Each check returns a JSON-ready dict with at least {"check", "ok"}.  The
suites are deterministic for a fixed seed and n_max, which the CLI relies
on for byte-identical reports.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from . import flags as flags_mod
from . import pairs as pairs_mod
from . import symplectic as symp
from .counting import (
    CountSeries,
    gaussian_factorial_poly,
    growth_exponent,
    slope_dim,
    slope_estimates,
)
from .gfmat import (
    PrimeField,
    apply,
    mat_inv,
    mat_mul,
    random_invertible,
)
from .partitions import (
    a_stat,
    ah_leq,
    bipartition_to_json,
    dominance_leq,
    enumerate_bipartitions,
    enumerate_partitions,
    irr_dim,
    n_stat,
    partition_count,
    partition_sum,
    size,
    total,
)

SUITES = ("partitions", "enhanced", "springer", "exotic")


def _check(name: str, ok: bool, **details) -> dict:
    out = {"check": name, "ok": bool(ok)}
    out.update(details)
    return out


# ---------------------------------------------------------------------------
# partitions


def partitions_suite(n_max: int, seed: int = 0) -> list[dict]:
    checks = []

    failures = []
    for n in range(n_max + 1):
        elems = list(enumerate_bipartitions(n))
        expected = sum(
            partition_count(k) * partition_count(n - k) for k in range(n + 1)
        )
        if len(elems) != expected or len(set(elems)) != len(elems):
            failures.append(n)
        if any(total(b) != n for b in elems):
            failures.append(n)
    checks.append(_check("bipartition-count", not failures, n_max=n_max))

    cap = min(n_max, 6)
    order_ok = True
    dom_ok = True
    mono_ok = True
    for n in range(cap + 1):
        elems = list(enumerate_bipartitions(n))
        leq = {
            (a, b): ah_leq(a, b) for a in elems for b in elems
        }
        for a in elems:
            if not leq[(a, a)]:
                order_ok = False
        for a in elems:
            for b in elems:
                if a != b and leq[(a, b)] and leq[(b, a)]:
                    order_ok = False
                if leq[(a, b)] and a != b and a_stat(a) <= a_stat(b):
                    mono_ok = False
        for a in elems:
            for b in elems:
                if not leq[(a, b)]:
                    continue
                for c in elems:
                    if leq[(b, c)] and not leq[(a, c)]:
                        order_ok = False
        for mu in enumerate_partitions(n):
            for la in enumerate_partitions(n):
                if ah_leq(((), mu), ((), la)) != dominance_leq(mu, la):
                    dom_ok = False
    checks.append(_check("closure-partial-order", order_ok, n_max=cap))
    checks.append(_check("closure-dominance-restriction", dom_ok, n_max=cap))
    checks.append(_check("closure-dimension-monotone", mono_ok, n_max=cap))

    cap = min(n_max, 8)
    consistent = True
    for n in range(cap + 1):
        for bla in enumerate_bipartitions(n):
            nu = partition_sum(bla[0], bla[1])
            lhs = n * n - a_stat(bla)
            rhs = (n * n - n - 2 * n_stat(nu)) + size(bla[0])
            if lhs != rhs:
                consistent = False
    checks.append(_check("dimension-formula-consistency", consistent, n_max=cap))

    cap = min(n_max, 6)
    wedderburn = True
    from math import factorial

    for n in range(cap + 1):
        for m in range(n + 1):
            lhs = sum(
                irr_dim(bmu) ** 2 for bmu in enumerate_bipartitions(n, m)
            )
            if lhs != factorial(m) * factorial(n - m):
                wedderburn = False
    checks.append(_check("group-algebra-dimension", wedderburn, n_max=cap))
    return checks


# ---------------------------------------------------------------------------
# enhanced


def enhanced_suite(n_max: int, seed: int = 0) -> list[dict]:
    checks = []

    cap = min(n_max, 4)
    stab_ok = True
    for n in range(cap + 1):
        for p in (2, 3, 5):
            for bla in enumerate_bipartitions(n):
                z = pairs_mod.orbit_representative(bla, p)
                if pairs_mod.stab_dim(z) != a_stat(bla):
                    stab_ok = False
    checks.append(_check("stabilizer-dimension", stab_ok, n_max=cap, primes=[2, 3, 5]))

    cap = min(n_max, 3)
    conj_ok = True
    for n in range(1, cap + 1):
        for p in (2, 3):
            for bla in enumerate_bipartitions(n):
                z = pairs_mod.orbit_representative(bla, p)
                for s in range(3):
                    g = random_invertible(n, p, seed * 977 + s)
                    moved = pairs_mod.EnhancedPair(
                        mat_mul(mat_mul(mat_inv(g, p), z.x, p), g, p),
                        apply(z.v, g, p),
                        p,
                    )
                    if pairs_mod.classify(moved) != bla:
                        conj_ok = False
    checks.append(_check("classify-conjugation-invariant", conj_ok, n_max=cap))

    census_points = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]
    census_ok = True
    ran = []
    for n, p in census_points:
        if n > n_max:
            continue
        ran.append([n, p])
        table = pairs_mod.census(n, PrimeField(p))
        keys = list(table)
        if sorted(keys) != sorted(enumerate_bipartitions(n)):
            census_ok = False
        if any(c <= 0 for c in table.values()):
            census_ok = False
        if sum(table.values()) != p ** (n * n - n) * p**n:
            census_ok = False
    checks.append(_check("census-orbit-bijection", census_ok, points=ran))

    cap = min(n_max, 2)
    size_ok = True
    for n in range(1, cap + 1):
        for p in (2, 3):
            table = pairs_mod.census(n, PrimeField(p))
            for bla, count in table.items():
                if count != pairs_mod.orbit_size(bla, PrimeField(p)):
                    size_ok = False
    checks.append(_check("orbit-size-census-match", size_ok, n_max=cap))

    cap = min(n_max, 3)
    growth_ok = True
    for n in range(1, cap + 1):
        for bla in enumerate_bipartitions(n):
            series = CountSeries.of(
                [(p, pairs_mod.orbit_size(bla, PrimeField(p))) for p in (3, 5, 7)]
            )
            if a_stat(bla) == n * n:
                # the zero orbit has a single point at every prime
                if any(c != 1 for _, c in series.points):
                    growth_ok = False
                continue
            if growth_exponent(series) != n * n - a_stat(bla):
                growth_ok = False
    checks.append(_check("orbit-dimension-growth", growth_ok, n_max=cap, primes=[3, 5, 7]))
    return checks


# ---------------------------------------------------------------------------
# springer


def slice_cases(n: int) -> list[dict]:
    """Split mixed pairs exercising the slice dimension statements.

    Each case fixes integer data reduced mod p at run time, so the same
    orbit family is counted at every prime.  The steps list contains the
    m values to test; the natural step gets the equality check, the rest
    the bound.  Cases whose counts carry several (p-1)-type factors need
    primes above 3 for the growth estimate to round consistently; those
    run in the test suite at larger primes instead of here.
    """
    cases = []
    if n == 1:
        cases.append(
            {"name": "semisimple-line", "diag": [1], "unip": [], "vtail": [1], "steps": [1]}
        )
        cases.append(
            {"name": "semisimple-zero", "diag": [1], "unip": [], "vtail": [], "steps": [0, 1]}
        )
    elif n == 2:
        cases.append(
            {"name": "split-torus", "diag": [1, 2], "unip": [], "vtail": [1], "steps": [1, 2]}
        )
        cases.append(
            {
                "name": "unipotent-zero",
                "diag": [1, 1],
                "unip": [(1, 0)],
                "vtail": [],
                "steps": [0, 1, 2],
            }
        )
        cases.append(
            {"name": "central-vector", "diag": [1, 1], "unip": [], "vtail": [1, 1], "steps": [2]}
        )
    elif n == 3:
        cases.append(
            {
                "name": "central-vector",
                "diag": [1, 1, 1],
                "unip": [],
                "vtail": [1],
                "steps": [3],
            }
        )
        cases.append(
            {
                "name": "unipotent-zero",
                "diag": [1, 1, 1],
                "unip": [(1, 0)],
                "vtail": [],
                "steps": [0, 1, 2],
            }
        )
        cases.append(
            {
                "name": "mixed-zero",
                "diag": [1, 1, 2],
                "unip": [(1, 0)],
                "vtail": [],
                "steps": [0, 1, 3],
            }
        )
        cases.append(
            {
                "name": "torus-with-multiplicity",
                "diag": [1, 2, 2],
                "unip": [],
                "vtail": [1],
                "steps": [1, 2],
            }
        )
    return cases


def _slice_case_data(case: dict, n: int, p: int):
    s = tuple(
        tuple(case["diag"][i] % p if i == j else 0 for j in range(n)) for i in range(n)
    )
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in case["unip"]:
        u[i][j] = 1
    x = mat_mul(s, tuple(tuple(r) for r in u), p)
    vt = case["vtail"]
    v = tuple(vt[i] if i < len(vt) else 0 for i in range(n))
    return s, pairs_mod.EnhancedPair(x, v, p)


def slice_report(n: int, primes: Sequence[int] = (3, 5, 7), budget: int = 2_000_000) -> list[dict]:
    """Slice counts of the mixed test pairs at and off the natural step index."""
    out = []
    for case in slice_cases(n):
        p0 = primes[0]
        s0, z0 = _slice_case_data(case, n, p0)
        inv = pairs_mod.mixed_invariant(z0)
        mu = inv.mu
        dim = n * n - sum(a_stat(bla) for _, bla in inv.blocks)
        for m in case["steps"]:
            if m < mu or len(case["vtail"]) > m:
                continue
            counts = []
            for p in primes:
                s, z = _slice_case_data(case, n, p)
                counts.append(
                    (p, flags_mod.slice_count(s, z, m, PrimeField(p), budget=budget))
                )
            series = CountSeries.of(counts)
            bound = (dim + m) // 2
            if m == mu:
                est = slope_dim(series)
                ok = 2 * est == dim + m
                expected = bound
            else:
                if all(c == 0 for _, c in series.points):
                    est = None
                    ok = True
                else:
                    ests = slope_estimates(series)
                    est = max(ests)
                    ok = all(e <= bound for e in ests)
                expected = bound
            out.append(
                {
                    "check": "slice-dimension",
                    "case": case["name"],
                    "n": n,
                    "m": m,
                    "natural_m": mu,
                    "orbit_dim": dim,
                    "primes": list(primes),
                    "counts": [c for _, c in counts],
                    "dim_estimate": est,
                    "expected": expected,
                    "equality": m == mu,
                    "ok": ok,
                }
            )
    return out


def springer_suite(n_max: int, seed: int = 0) -> list[dict]:
    checks = []

    cap = min(n_max, 4)
    report_ok = True
    bad = []
    for n in range(cap + 1):
        for bmu in enumerate_bipartitions(n):
            rep = flags_mod.springer_report(bmu, size(bmu[0]))
            if not (rep.degree_ok and rep.leading_ok):
                report_ok = False
                bad.append(bipartition_to_json(bmu))
    checks.append(_check("fiber-degree-and-leading", report_ok, n_max=cap, failures=bad))

    cap = min(n_max, 4)
    product_ok = True
    for n in range(cap + 1):
        for m in range(n + 1):
            bmu = ((1,) * m, (1,) * (n - m))
            rep = flags_mod.springer_report(bmu, m)
            target = [Fraction(c) for c in gaussian_factorial_poly(m)]
            other = gaussian_factorial_poly(n - m)
            prod = [Fraction(0)] * (len(target) + len(other) - 1)
            for i, a in enumerate(target):
                for j, b in enumerate(other):
                    prod[i + j] += a * b
            coeffs = list(rep.polynomial.coefficients)
            coeffs += [Fraction(0)] * (len(prod) - len(coeffs))
            if coeffs[: len(prod)] != prod or any(c for c in coeffs[len(prod) :]):
                product_ok = False
    checks.append(_check("flag-count-product-case", product_ok, n_max=cap))

    conj_ok = True
    for n in range(1, min(n_max, 3) + 1):
        for p in (2, 3):
            for bmu in enumerate_bipartitions(n):
                z = flags_mod.orbit_representative(bmu, p)
                m = size(bmu[0])
                base = flags_mod.count_fiber(flags_mod.FlagCondition(z.x, z.v, m, p))
                g = random_invertible(n, p, seed * 31 + n * 7 + p)
                moved = flags_mod.FlagCondition(
                    mat_mul(mat_mul(mat_inv(g, p), z.x, p), g, p),
                    apply(z.v, g, p),
                    m,
                    p,
                )
                if flags_mod.count_fiber(moved) != base:
                    conj_ok = False
    checks.append(_check("fiber-conjugation-covariant", conj_ok))

    cap = min(n_max, 4)
    galois_ok = True
    from .counting import first_primes

    for n in range(1, cap + 1):
        p = first_primes(1, minimum=n + 1)[0]
        for m in range(n + 1):
            _, _, ok = flags_mod.galois_degree_check(n, m, PrimeField(p))
            galois_ok = galois_ok and ok
    checks.append(_check("covering-degree", galois_ok, n_max=cap))

    cap = min(n_max, 3)
    slice_ok = True
    rows = []
    for n in range(1, cap + 1):
        primes = (3, 5, 7) if n <= 2 else (3, 5)
        for row in slice_report(n, primes=primes):
            rows.append(row)
            slice_ok = slice_ok and row["ok"]
    checks.append(_check("slice-dimension", slice_ok, rows=rows))
    return checks


# ---------------------------------------------------------------------------
# exotic


def exotic_orbit_cases(n: int) -> list[dict]:
    """Twisted pairs with torus and unipotent parts given by integer data."""
    if n == 1:
        return [
            {"name": "central-zero", "torus": [1], "gen": [], "vtail": []},
            {"name": "central-vector", "torus": [1], "gen": [], "vtail": [1]},
            {"name": "scaled-vector", "torus": [2], "gen": [], "vtail": [1]},
        ]
    if n == 2:
        return [
            {"name": "central-zero", "torus": [1, 1], "gen": [], "vtail": []},
            {"name": "central-vector", "torus": [1, 1], "gen": [], "vtail": [1]},
            {"name": "torus-zero", "torus": [1, 2], "gen": [], "vtail": []},
            {"name": "torus-vector", "torus": [1, 2], "gen": [], "vtail": [1]},
            {"name": "unipotent-zero", "torus": [1, 1], "gen": [(1, 0, 1)], "vtail": []},
            # the slice count (p-1)^2 (2p+1) needs primes past 3 to round
            # consistently, and the orbit at p=7 is large; kept out of the
            # fast suite
            {
                "name": "unipotent-vector",
                "torus": [1, 1],
                "gen": [(1, 0, 1)],
                "vtail": [1],
                "slice_primes": (5, 7),
                "slow": True,
            },
        ]
    raise ValueError("exotic orbit cases are tabulated for n in {1, 2}")


def _exotic_case_data(case: dict, space: symp.SymplecticSpace):
    """Materialize (s, u, v) mod p; u = g theta(g)^{-1} for unipotent g."""
    p, dim = space.p, space.dim
    s = space.torus_twisted([t % p for t in case["torus"]])
    g = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for i, j, val in case["gen"]:
        g[i][j] = val % p
    g = tuple(tuple(r) for r in g)
    u = mat_mul(g, space.theta_inv_of(g), p)
    vt = case["vtail"]
    v = tuple(vt[i] if i < len(vt) else 0 for i in range(dim))
    return s, u, v


EXOTIC_SLICE_PRIMES = (3, 5)
# fiber counts need primes past 3 at n = 2 for the estimates to agree
EXOTIC_FIBER_PRIMES = {1: (3, 5, 7), 2: (5, 7, 11)}


def exotic_orbit_report(n: int, skip_slow: bool = False) -> list[dict]:
    """Slice equality, slice bound and fiber bound/value for the test orbits."""
    cases = exotic_orbit_cases(n)
    fiber_primes = EXOTIC_FIBER_PRIMES[n]
    flag_cache: dict = {}
    rows = []
    for case in cases:
        if skip_slow and case.get("slow"):
            continue
        slice_primes = case.get("slice_primes", EXOTIC_SLICE_PRIMES)
        orbit_counts = []
        slice_counts = []
        for p in slice_primes:
            space = symp.SymplecticSpace(n, p)
            s, u, v = _exotic_case_data(case, space)
            slc, orb = symp.exotic_slice_count(space, s, u, v)
            orbit_counts.append((p, orb))
            slice_counts.append((p, slc))
        c = slope_dim(CountSeries.of(orbit_counts))
        nu_h = n * n
        slice_series = CountSeries.of(slice_counts)
        if all(cnt == 0 for _, cnt in slice_series.points):
            slice_ok = c == 0
            slice_est = None
        else:
            ests = slope_estimates(slice_series)
            slice_est = slope_dim(slice_series)
            slice_ok = 2 * slice_est == c and all(2 * e <= c for e in ests)
        fiber_counts = []
        for p in fiber_primes:
            space = symp.SymplecticSpace(n, p)
            s, u, v = _exotic_case_data(case, space)
            if p not in flag_cache:
                flags = symp.isotropic_flags(space)
                flag_cache[p] = (
                    flags,
                    [symp.symplectic_transition(space, f) for f in flags],
                )
            flags, trans = flag_cache[p]
            x = mat_mul(s, u, p)
            fiber_counts.append(
                (p, symp.exotic_fiber_count(space, s, x, v, flags, trans))
            )
        fiber_series = CountSeries.of(fiber_counts)
        fiber_ests = slope_estimates(fiber_series)
        fiber_est = slope_dim(fiber_series)
        fiber_ok = fiber_est == nu_h - c // 2 and all(e <= nu_h - c // 2 for e in fiber_ests)
        common = {
            "case": case["name"],
            "n": n,
            "orbit_sizes": [cnt for _, cnt in orbit_counts],
            "orbit_dim": c,
        }
        rows.append(
            {
                "check": "slice-dim",
                **common,
                "primes": list(slice_primes),
                "counts": [cnt for _, cnt in slice_counts],
                "dim_estimate": slice_est,
                "expected": c // 2,
                "ok": bool(slice_ok and c % 2 == 0),
            }
        )
        rows.append(
            {
                "check": "fiber-dim",
                **common,
                "primes": list(fiber_primes),
                "counts": [cnt for _, cnt in fiber_counts],
                "dim_estimate": fiber_est,
                "expected": nu_h - c // 2,
                "ok": bool(fiber_ok and c % 2 == 0),
            }
        )
    return rows


def root_identity_ok(n_cap: int) -> bool:
    """The long-root identity for every signed permutation of rank 1..n_cap."""
    return all(
        symp.root_identity_check(w).ok
        for n in range(1, n_cap + 1)
        for w in symp.signed_permutations(n)
    )


def twisted_set_ok(primes: Sequence[int]) -> bool:
    """At n = 1 the fixed points of g -> theta(g)^{-1} equal the image of
    g -> g theta(g)^{-1}, and both are the nonzero scalars."""
    for p in primes:
        space = symp.SymplecticSpace(1, p)
        report, sets = symp.iotheta_set(space)
        scalars = {symp.identity_scaled(space, c) for c in range(1, p)}
        if not (report.coincide and sets[0] == scalars):
            return False
    return True


def z_bound(primes: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Double-flag counts of the central torus element at n = 2, their
    growth estimates, and the bound 2 nu_h the estimates must not exceed."""
    counts = []
    for p in primes:
        space = symp.SymplecticSpace(2, p)
        counts.append((p, symp.z_variety_count(space, space.torus_twisted([1, 1]))))
    bound = 2 * symp.SymplecticSpace(2, 3).nu_h
    return [c for _, c in counts], slope_estimates(CountSeries.of(counts)), bound


def exotic_suite(n_max: int, seed: int = 0) -> list[dict]:
    checks = []

    cap = min(n_max, 4)
    checks.append(_check("root-identity", root_identity_ok(cap), n_max=cap))

    involution_ok = True
    for n in (1, 2):
        if n > n_max:
            continue
        for p in (3, 5):
            space = symp.SymplecticSpace(n, p)
            for s in range(5):
                g = random_invertible(2 * n, p, seed * 53 + 10 * n + s)
                if space.theta(space.theta(g)) != g:
                    involution_ok = False
                point = mat_mul(g, space.theta_inv_of(g), p)
                if not space.in_twisted_set(point):
                    involution_ok = False
                h = symp.transvection(
                    space, tuple(1 if k == s % (2 * n) else 0 for k in range(2 * n)), 1
                )
                if space.theta(h) != h:
                    involution_ok = False
    checks.append(_check("involution-and-twisting", involution_ok))

    if n_max >= 1:
        checks.append(
            _check("twisted-set-coincidence", twisted_set_ok((3, 5)), n=1, primes=[3, 5])
        )

    flag_ok = True
    for n in (1, 2):
        if n > n_max:
            continue
        for p in (3, 5):
            space = symp.SymplecticSpace(n, p)
            flags = symp.isotropic_flags(space)
            if len(flags) != symp.type_c_poincare(n, p):
                flag_ok = False
            lag = flags[0][-1]
            if any(space.form(b1, b2) for b1 in lag.basis for b2 in lag.basis):
                flag_ok = False
    checks.append(_check("isotropic-flag-count", flag_ok))

    orbit_rows = []
    orbit_ok = True
    for n in (1, 2):
        if n > n_max:
            continue
        for row in exotic_orbit_report(n, skip_slow=True):
            orbit_rows.append(row)
            orbit_ok = orbit_ok and row["ok"]
    checks.append(_check("slice-fiber-dimensions", orbit_ok, rows=orbit_rows))

    if n_max >= 2:
        counts, ests, bound = z_bound((3, 5))
        checks.append(
            _check(
                "double-flag-bound",
                all(e <= bound for e in ests),
                counts=counts,
                bound=bound,
            )
        )
    return checks


def run_suites(names: Sequence[str], n_max: int, seed: int = 0) -> tuple[bool, list[dict]]:
    table: dict[str, Callable[[int, int], list[dict]]] = {
        "partitions": partitions_suite,
        "enhanced": enhanced_suite,
        "springer": springer_suite,
        "exotic": exotic_suite,
    }
    out = []
    ok = True
    for name in names:
        if name not in table:
            raise ValueError(f"unknown suite {name!r}")
        for check in table[name](n_max, seed):
            check["suite"] = name
            out.append(check)
            ok = ok and check["ok"]
    return ok, out
