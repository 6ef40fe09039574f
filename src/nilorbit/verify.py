"""Named invariant suites behind the `verify` command.

Each check is written once, as a function that takes its scope (an n
range, primes or census points) and returns its failing cases as
JSON-ready dicts; an empty list means the check passed.  The suites, the
`exotic` command and the acceptance criteria all call these functions.

A suite row is a dict with at least {"check", "ok"}; a failing row names
its first failing case as "witness".  The suites are deterministic for a
fixed seed and n_max, which the CLI relies on for byte-identical reports.
"""

from __future__ import annotations

from math import factorial
from typing import Callable, Sequence

from . import flags as flags_mod
from . import pairs as pairs_mod
from . import symplectic as symp
from .counting import (
    CountSeries,
    degree,
    evaluate,
    first_primes,
    gaussian_factorial,
    gaussian_factorial_poly,
    poly_mul,
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


def check_row(name: str, failures: list, /, **details) -> dict:
    """Report row of a check: ok when nothing failed, else the first failure
    as witness."""
    out = {"check": name, "ok": not failures, **details}
    if failures:
        out["witness"] = failures[0]
    return out


def _case(bla, **details) -> dict:
    """A failing case of one bipartition."""
    return {"bpartition": bipartition_to_json(bla), **details}


def _law(law: str, *elems, **details) -> dict:
    """A failing case of an order law on the given bipartitions."""
    return {"law": law, "bpartitions": [bipartition_to_json(e) for e in elems], **details}


def _conjugate(z, g, p: int):
    """The pair (g^{-1} x g, v g)."""
    return mat_mul(mat_mul(mat_inv(g, p), z.x, p), g, p), apply(z.v, g, p)


# ---------------------------------------------------------------------------
# partitions


def bipartition_count_failures(n_max: int) -> list[dict]:
    """There are sum_k p(k) p(n - k) bipartitions of n, distinct, of total n."""
    out = []
    for n in range(n_max + 1):
        elems = list(enumerate_bipartitions(n))
        valid = {b for b in elems if total(b) == n}
        expected = sum(partition_count(k) * partition_count(n - k) for k in range(n + 1))
        if len(elems) != expected or len(valid) != expected:
            out.append({"n": n, "expected": expected, "got": len(elems)})
    return out


def _closure_order(n: int):
    elems = list(enumerate_bipartitions(n))
    return elems, {(a, b): ah_leq(a, b) for a in elems for b in elems}


def closure_partial_order_failures(n_max: int) -> list[dict]:
    """The closure order is reflexive, antisymmetric and transitive."""
    out = []
    for n in range(n_max + 1):
        elems, leq = _closure_order(n)
        for a in elems:
            if not leq[a, a]:
                out.append(_law("reflexive", a))
            for b in elems:
                if a == b or not leq[a, b]:
                    continue
                if leq[b, a]:
                    out.append(_law("antisymmetric", a, b))
                out.extend(
                    _law("transitive", a, b, c) for c in elems if leq[b, c] and not leq[a, c]
                )
    return out


def closure_dominance_failures(n_max: int) -> list[dict]:
    """On pairs ((), mu) the closure order is the dominance order."""
    out = []
    for n in range(n_max + 1):
        for mu in enumerate_partitions(n):
            for la in enumerate_partitions(n):
                got = ah_leq(((), mu), ((), la))
                if got != dominance_leq(mu, la):
                    out.append({"mu": list(mu), "lambda": list(la), "got": got})
    return out


def closure_monotone_failures(n_max: int) -> list[dict]:
    """A strictly smaller orbit has a strictly larger stabilizer dimension a."""
    out = []
    for n in range(n_max + 1):
        elems, leq = _closure_order(n)
        for a in elems:
            for b in elems:
                if a != b and leq[a, b] and a_stat(a) <= a_stat(b):
                    out.append(_law("monotone", a, b, got=[a_stat(a), a_stat(b)]))
    return out


def dimension_formula_failures(n_max: int) -> list[dict]:
    """n^2 - a(beta) = (n^2 - n - 2 n(mu + nu)) + |mu| for beta = (mu, nu)."""
    out = []
    for n in range(n_max + 1):
        for bla in enumerate_bipartitions(n):
            got = n * n - a_stat(bla)
            expected = (n * n - n - 2 * n_stat(partition_sum(bla[0], bla[1]))) + size(bla[0])
            if got != expected:
                out.append(_case(bla, expected=expected, got=got))
    return out


def group_algebra_failures(n_max: int) -> list[dict]:
    """The irreducibles of W_m x W_(n-m) have square dimensions summing to m!(n-m)!."""
    out = []
    for n in range(n_max + 1):
        for m in range(n + 1):
            got = sum(irr_dim(bmu) ** 2 for bmu in enumerate_bipartitions(n, m))
            expected = factorial(m) * factorial(n - m)
            if got != expected:
                out.append({"n": n, "m": m, "expected": expected, "got": got})
    return out


def partitions_suite(n_max: int, seed: int = 0) -> list[dict]:
    cap, wide = min(n_max, 6), min(n_max, 8)
    return [
        check_row("bipartition-count", bipartition_count_failures(n_max), n_max=n_max),
        check_row("closure-partial-order", closure_partial_order_failures(cap), n_max=cap),
        check_row("closure-dominance-restriction", closure_dominance_failures(cap), n_max=cap),
        check_row("closure-dimension-monotone", closure_monotone_failures(cap), n_max=cap),
        check_row(
            "dimension-formula-consistency", dimension_formula_failures(wide), n_max=wide
        ),
        check_row("group-algebra-dimension", group_algebra_failures(cap), n_max=cap),
    ]


# ---------------------------------------------------------------------------
# enhanced


def stabilizer_dimension_failures(n_max: int, primes: Sequence[int]) -> list[dict]:
    """The stabilizer of the normal form of beta = (mu, nu) has dimension
    a(beta), and a(beta) = 2(n(mu) + n(nu)) + |nu|."""
    out = []
    for n in range(n_max + 1):
        for p in primes:
            for bla in enumerate_bipartitions(n):
                expected = a_stat(bla)
                formula = 2 * (n_stat(bla[0]) + n_stat(bla[1])) + size(bla[1])
                got = pairs_mod.stab_dim(pairs_mod.orbit_representative(bla, p))
                if got != expected or formula != expected:
                    out.append(_case(bla, p=p, expected=expected, got=got, formula=formula))
    return out


def classify_conjugation_failures(n_max: int, seed: int) -> list[dict]:
    """classify is constant on GL_n orbits, for three seeded g per (n, p),
    each applied to every pair."""
    out = []
    for n in range(1, n_max + 1):
        for p in (2, 3):
            gs = [random_invertible(n, p, seed * 977 + s) for s in range(3)]
            for bla in enumerate_bipartitions(n):
                z = pairs_mod.orbit_representative(bla, p)
                for g in gs:
                    got = pairs_mod.classify(pairs_mod.EnhancedPair(*_conjugate(z, g, p), p))
                    if got != bla:
                        out.append(_case(bla, p=p, got=bipartition_to_json(got)))
    return out


def census_orbit_bijection_failures(points: Sequence[tuple[int, int]]) -> list[dict]:
    """At each census point (n, p) the classes are exactly the bipartitions
    of n, each with a positive count, and the counts add up to p^(n^2)."""
    out = []
    for n, p in points:
        table = pairs_mod.census(n, PrimeField(p))
        bips = sorted(enumerate_bipartitions(n))
        expected = {"classes": len(bips), "points": p ** (n * n)}
        got = {"classes": sum(c > 0 for c in table.values()), "points": sum(table.values())}
        if sorted(table) != bips or got != expected:
            out.append({"n": n, "p": p, "expected": expected, "got": got})
    return out


def orbit_size_census_failures(n_max: int) -> list[dict]:
    """The closed-form orbit sizes equal the census counts at p = 2, 3."""
    out = []
    for n in range(1, n_max + 1):
        for p in (2, 3):
            for bla, count in pairs_mod.census(n, PrimeField(p)).items():
                got = pairs_mod.orbit_size(bla, PrimeField(p))
                if got != count:
                    out.append(_case(bla, p=p, expected=count, got=got))
    return out


def orbit_dimension_growth_failures(n_max: int, primes: Sequence[int]) -> list[dict]:
    """Orbits have dimension n^2 - a(beta): the size |GL_n| / |Z(J_lam)| times
    c_beta(q) has degree n^2 - sum lam'_i^2 + deg c_beta
    (`pairs.mixed_orbit_degree`).  A failing case carries the orbit sizes at
    the primes."""
    out = []
    for n in range(1, n_max + 1):
        for bla in enumerate_bipartitions(n):
            expected = n * n - a_stat(bla)
            got = pairs_mod.mixed_orbit_degree(pairs_mod.MixedInvariant(((0, bla),)))
            if got != expected:
                counts = [pairs_mod.orbit_size(bla, PrimeField(p)) for p in primes]
                out.append(_case(bla, counts=counts, expected=expected, got=got))
    return out


CENSUS_POINTS = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))


def enhanced_suite(n_max: int, seed: int = 0) -> list[dict]:
    points = [[n, p] for n, p in CENSUS_POINTS if n <= n_max]
    stab, small, tiny = min(n_max, 4), min(n_max, 3), min(n_max, 2)
    return [
        check_row(
            "stabilizer-dimension",
            stabilizer_dimension_failures(stab, (2, 3, 5)),
            n_max=stab,
            primes=[2, 3, 5],
        ),
        check_row(
            "classify-conjugation-invariant",
            classify_conjugation_failures(small, seed),
            n_max=small,
        ),
        check_row("census-orbit-bijection", census_orbit_bijection_failures(points), points=points),
        check_row("orbit-size-census-match", orbit_size_census_failures(tiny), n_max=tiny),
        check_row(
            "orbit-dimension-growth",
            orbit_dimension_growth_failures(small, (3, 5, 7)),
            n_max=small,
            primes=[3, 5, 7],
        ),
    ]


# ---------------------------------------------------------------------------
# springer


def slice_cases(n: int) -> list[dict]:
    """Split mixed pairs exercising the slice dimension statements.

    Each case fixes integer data reduced mod p at run time, so the same
    orbit family is counted at every prime.  The steps list contains the
    m values to test; the natural step gets the equality check, the rest
    the bound.  A dimension is the exact degree of the slice count, so it
    needs no particular prime; more cases are checked in the test suite.
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
    else:
        raise ValueError("slice cases are tabulated for n in {1, 2, 3}")
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


def slice_report(n: int, primes: Sequence[int] = (3, 5, 7)) -> list[dict]:
    """Slice counts of the mixed test pairs at and off the natural step index.

    A row's dimension is the degree of its count |O| fiber_s / [n]_q!:
    `pairs.mixed_orbit_degree` plus the degree of the ordered fiber
    polynomial that `flags.slice_count` evaluates, minus n(n - 1)/2; None
    when the fiber, and so every count, is zero.
    """
    out = []
    for case in slice_cases(n):
        s0, z0 = _slice_case_data(case, n, primes[0])
        inv = pairs_mod.mixed_invariant(z0)
        mu = inv.mu
        dim = n * n - sum(a_stat(bla) for _, bla in inv.blocks)
        orbit_degree = pairs_mod.mixed_orbit_degree(inv)
        diagonal = tuple(s0[i][i] for i in range(n))
        for m in case["steps"]:
            if m < mu or len(case["vtail"]) > m:
                continue
            counts = []
            for p in primes:
                s, z = _slice_case_data(case, n, p)
                try:
                    counts.append((p, flags_mod.slice_count(s, z, m, PrimeField(p))))
                except ValueError as exc:
                    raise ValueError(f"{case['name']} at p={p}: {exc}") from exc
            CountSeries.of(counts)  # rejects primes that are not distinct and increasing
            fiber = flags_mod._fiber_polynomial(inv.blocks, m, diagonal)
            got = orbit_degree + degree(fiber) - n * (n - 1) // 2 if any(fiber) else None
            bound = (dim + m) // 2
            if got is None:
                ok = m != mu
            elif m == mu:
                ok = 2 * got == dim + m
            else:
                ok = got <= bound
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
                    "dim_estimate": got,
                    "expected": bound,
                    "equality": m == mu,
                    "ok": ok,
                }
            )
    return out


def fiber_degree_and_leading_failures(n_max: int) -> list[dict]:
    """Each fiber polynomial has degree d_mu and leading coefficient dim E_mu."""
    out = []
    for n in range(n_max + 1):
        for bmu in enumerate_bipartitions(n):
            rep = flags_mod.springer_report(bmu, size(bmu[0]))
            if not (rep.degree_ok and rep.leading_ok):
                expected = {"degree": rep.d_mu, "leading": irr_dim(bmu)}
                got = [str(c) for c in rep.polynomial]
                out.append(_case(bmu, expected=expected, got=got))
    return out


def flag_count_product_case_failures(n_max: int) -> list[dict]:
    """The fiber polynomial of ((1^m), (1^(n-m))) equals [m]_q! [n-m]_q!.

    The identity is false at (n, m) = (4, 2) and (4, 3), so this check
    fails from n_max = 4 on.
    """
    out = []
    for n in range(n_max + 1):
        for m in range(n + 1):
            poly = flags_mod.springer_report(((1,) * m, (1,) * (n - m)), m).polynomial
            got = list(poly[: degree(poly) + 1])
            expected = poly_mul(gaussian_factorial_poly(m), gaussian_factorial_poly(n - m))
            if got != expected:
                out.append({"n": n, "m": m, "expected": expected, "got": got})
    return out


def fiber_conjugation_failures(n_max: int, seed: int) -> list[dict]:
    """Fiber counts are constant on GL_n orbits, for one seeded g per pair."""
    out = []
    for n in range(1, n_max + 1):
        for p in (2, 3):
            for bmu in enumerate_bipartitions(n):
                z = pairs_mod.orbit_representative(bmu, p)
                m = size(bmu[0])
                expected = flags_mod.count_fiber(flags_mod.FlagCondition(z.x, z.v, m, p))
                g = random_invertible(n, p, seed * 31 + n * 7 + p)
                got = flags_mod.count_fiber(flags_mod.FlagCondition(*_conjugate(z, g, p), m, p))
                if got != expected:
                    out.append(_case(bmu, p=p, expected=expected, got=got))
    return out


def covering_degree_failures(n_max: int) -> list[dict]:
    """Over a regular semisimple pair the fiber has m! (n-m)! points, at the
    first prime above n."""
    out = []
    for n in range(1, n_max + 1):
        p = first_primes(1, minimum=n + 1)[0]
        for m in range(n + 1):
            got, _, good = flags_mod.galois_degree_check(n, m, PrimeField(p))
            expected = factorial(m) * factorial(n - m)
            if not good or got != expected:
                out.append({"n": n, "m": m, "p": p, "expected": expected, "got": got})
    return out


def springer_total_failures(n_max: int, primes: Sequence[int]) -> list[dict]:
    """Counting the triples (flag F, x nilpotent stabilizing F, v in F_m) two
    ways: sum over beta |- n of |O_beta| F_(beta,m)(p) = [n]_p! p^(n(n-1)/2 + m)
    for every m in 0..n, as the x stabilizing F are the strictly triangular
    matrices and the v in F_m number p^m.  It binds every line table, class
    polynomial and fiber of size n."""
    out = []
    for n in range(1, n_max + 1):
        for p in primes:
            field = PrimeField(p)
            orbits = [(bla, pairs_mod.orbit_size(bla, field)) for bla in enumerate_bipartitions(n)]
            for m in range(n + 1):
                expected = gaussian_factorial(n, p) * p ** (n * (n - 1) // 2 + m)
                got = sum(
                    count * evaluate(flags_mod._fiber_polynomial(((0, bla),), m), p)
                    for bla, count in orbits
                )
                if got != expected:
                    out.append({"n": n, "m": m, "p": p, "expected": expected, "got": got})
    return out


def springer_suite(n_max: int, seed: int = 0) -> list[dict]:
    cap = min(n_max, 4)
    degree = fiber_degree_and_leading_failures(cap)
    rows = [
        row
        for n in range(1, min(n_max, 3) + 1)
        for row in slice_report(n, primes=(3, 5, 7) if n <= 2 else (3, 5))
    ]
    return [
        check_row(
            "fiber-degree-and-leading",
            degree,
            n_max=cap,
            failures=[case["bpartition"] for case in degree],
        ),
        check_row("flag-count-product-case", flag_count_product_case_failures(cap), n_max=cap),
        check_row("fiber-conjugation-covariant", fiber_conjugation_failures(min(n_max, 3), seed)),
        check_row("covering-degree", covering_degree_failures(cap), n_max=cap),
        check_row("slice-dimension", [row for row in rows if not row["ok"]], rows=rows),
    ]


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
            # slice count (p-1)^2 (2p+1): its degree 3 is exact at every
            # prime, where growth between 3 and 5 rounds to 4
            {"name": "unipotent-vector", "torus": [1, 1], "gen": [(1, 0, 1)], "vtail": [1]},
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


EXOTIC_PRIMES = (3, 5, 7)


def exotic_orbit_report(n: int) -> list[dict]:
    """Slice equality and fiber value for the test orbits, with the counts
    of `symplectic.exotic_slice_count` at EXOTIC_PRIMES.

    Each dimension is the exact degree of the count its row prints: the
    orbit's is `symplectic.key_orbit_degree` of its exotic keys, the
    fiber's that of the fiber polynomial the counts evaluate, and the
    slice's is their sum minus deg P_C = n^2.
    """
    rows = []
    for case in exotic_orbit_cases(n):
        counts = []
        for p in EXOTIC_PRIMES:
            space = symp.SymplecticSpace(n, p)
            s, u, v = _exotic_case_data(case, space)
            counts.append(symp.exotic_slice_count(space, s, u, v))
        slices, orbits, fibers = zip(*counts)
        # the keys and the order, read at the last prime, are those of every prime
        order, blocks = symp._exotic_blocks(space, s, mat_mul(s, u, space.p), v)
        c = symp.key_orbit_degree([key for _, key in blocks])
        fiber_dim = degree(symp._exotic_fiber(blocks, order))
        slice_dim = c + fiber_dim - n * n
        common = {"case": case["name"], "n": n, "orbit_sizes": list(orbits), "orbit_dim": c}
        for check, row_counts, got, expected in (
            ("slice-dim", slices, slice_dim, c // 2),
            ("fiber-dim", fibers, fiber_dim, n * n - c // 2),
        ):
            rows.append(
                {
                    "check": check,
                    **common,
                    "primes": list(EXOTIC_PRIMES),
                    "counts": list(row_counts),
                    "dim_estimate": got,
                    "expected": expected,
                    "ok": got == expected and c % 2 == 0,
                }
            )
    return rows


def root_identity_failures(n_max: int) -> list[dict]:
    """The long-root identity for every signed permutation of rank 1..n_max."""
    out = []
    for n in range(1, n_max + 1):
        for w in symp.signed_permutations(n):
            report = symp.root_identity_check(w)
            if not report.ok:
                out.append(report.to_json())
    return out


def involution_failures(n_max: int, seed: int) -> list[dict]:
    """theta is an involution, g theta(g)^{-1} is twisted and transvections
    are theta-fixed, for five seeded g per (n, p)."""
    out = []
    for n in range(1, n_max + 1):
        for p in (3, 5):
            space = symp.SymplecticSpace(n, p)
            for s in range(5):
                g = random_invertible(2 * n, p, seed * 53 + 10 * n + s)
                h = symp.transvection(
                    space, tuple(1 if k == s % (2 * n) else 0 for k in range(2 * n)), 1
                )
                laws = {
                    "involution": space.theta(space.theta(g)) == g,
                    "twisting": space.in_twisted_set(mat_mul(g, space.theta_inv_of(g), p)),
                    "transvection-fixed": space.theta(h) == h,
                }
                out.extend(
                    {"n": n, "p": p, "sample": s, "law": law}
                    for law, ok in laws.items()
                    if not ok
                )
    return out


def twisted_set_failures(primes: Sequence[int]) -> list[dict]:
    """At n = 1 the fixed points of g -> theta(g)^{-1} equal the image of
    g -> g theta(g)^{-1}, and both are the nonzero scalars.

    The coincidence needs odd p: over GF(2) the form is symmetric, and the
    4 fixed points have 1 image, so p = 2 raises ValueError.
    """
    if 2 in primes:
        raise ValueError("the twisted-set coincidence holds for odd primes only, got p=2")
    out = []
    for p in primes:
        space = symp.SymplecticSpace(1, p)
        solution, image = symp.iotheta_set(space)
        scalars = {symp.identity_scaled(space, c) for c in range(1, p)}
        if not solution == image == scalars:
            out.append({"p": p, "expected": len(scalars), "got": [len(solution), len(image)]})
    return out


def _central_fiber(key, n: int, p: int) -> int:
    """Exotic fiber count at p of the pair 1 + x with x nilpotent of exotic key (mu; nu) |- n."""
    return evaluate(symp._exotic_fiber(((1, key),), (1,) * n), p)


def isotropic_flag_failures(n_max: int) -> list[dict]:
    """There are as many isotropic flags as the type-C Poincare polynomial
    at p says and as the exotic fiber of the central pair (1, 0), which every
    isotropic flag carries, and the first one ends in a Lagrangian."""
    out = []
    for n in range(1, n_max + 1):
        for p in (3, 5):
            space = symp.SymplecticSpace(n, p)
            flags = symp.isotropic_flags(space)
            lag = flags[0][-1]
            expected = symp.type_c_poincare(n, p)
            fiber = _central_fiber(((), (1,) * n), n, p)
            isotropic = not any(space.form(b1, b2) for b1 in lag.basis for b2 in lag.basis)
            if len(flags) != expected or len(flags) != fiber or not isotropic:
                out.append(
                    {"n": n, "p": p, "expected": expected, "got": len(flags), "fiber": fiber}
                )
    return out


def exotic_total_failures(n_max: int, primes: Sequence[int]) -> list[dict]:
    """Counting the triples (isotropic flag F, unipotent x in F's conjugate of
    X = U^{iota theta}, v in F_n) two ways: sum over (mu; nu) |- n of |O| F(p)
    = type_c_poincare(n, p) p^(n^2), O the Sp-orbit of the unipotent pairs of
    exotic key (mu; nu), sized from the key, and F its central exotic fiber,
    as |X| = p^(n^2 - n) and the v in F_n number p^n.  It binds every exotic
    line table and central fiber of size n."""
    out = []
    for n in range(1, n_max + 1):
        for p in primes:
            got = sum(
                symp.key_orbit_size((key,), p) * _central_fiber(key, n, p)
                for key in enumerate_bipartitions(n)
            )
            expected = symp.type_c_poincare(n, p) * p ** (n * n)
            if got != expected:
                out.append({"n": n, "p": p, "expected": expected, "got": got})
    return out


def z_bound(primes: Sequence[int]) -> tuple[list[int], int, int, list[dict]]:
    """Double-flag counts of the central torus element at n = 2, their
    largest growth estimate, the bound 2 nu_h and the estimates above it."""
    counts = []
    for p in primes:
        space = symp.SymplecticSpace(2, p)
        counts.append((p, symp.z_variety_count(space, space.torus_twisted([1, 1]))))
    bound = 2 * symp.SymplecticSpace(2, 3).nu_h
    ests = slope_estimates(CountSeries.of(counts))
    failures = [
        {"primes": list(primes[i : i + 2]), "expected": bound, "got": e}
        for i, e in enumerate(ests)
        if e > bound
    ]
    return [c for _, c in counts], max(ests), bound, failures


def exotic_suite(n_max: int, seed: int = 0) -> list[dict]:
    """The symplectic checks up to n_max; raises ValueError below n_max = 1,
    where every one of them would pass on no case."""
    if n_max < 1:
        raise ValueError(f"the exotic suite needs n_max >= 1, got {n_max}")
    roots, small = min(n_max, 4), min(n_max, 2)
    checks = [
        check_row("root-identity", root_identity_failures(roots), n_max=roots),
        check_row("involution-and-twisting", involution_failures(small, seed)),
        check_row("twisted-set-coincidence", twisted_set_failures((3, 5)), n=1, primes=[3, 5]),
        check_row("isotropic-flag-count", isotropic_flag_failures(small)),
    ]
    rows = [row for n in range(1, small + 1) for row in exotic_orbit_report(n)]
    checks.append(
        check_row("slice-fiber-dimensions", [row for row in rows if not row["ok"]], rows=rows)
    )
    if n_max >= 2:
        counts, _, bound, failures = z_bound((3, 5))
        checks.append(check_row("double-flag-bound", failures, counts=counts, bound=bound))
    return checks


def run_suites(names: Sequence[str], n_max: int, seed: int = 0) -> tuple[bool, list[dict]]:
    table: dict[str, Callable[[int, int], list[dict]]] = {
        "partitions": partitions_suite,
        "enhanced": enhanced_suite,
        "springer": springer_suite,
        "exotic": exotic_suite,
    }
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
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
