"""Symplectic side: involution, twisted sets, flags, orbits, root identities."""

import itertools
import random
from collections import Counter

import pytest

from nilorbit.counting import (
    CountSeries,
    evaluate,
    poly_mul,
    slope_estimates,
    sp_order_poly,
    type_c_poincare_poly,
)
from nilorbit.gfmat import (
    BudgetExceededError,
    Subspace,
    all_matrices,
    all_vectors,
    apply,
    identity,
    mat_inv,
    mat_mul,
    random_invertible,
    random_matrix,
    rank,
    right_kernel,
    transpose,
)
from nilorbit import flags, gfmat, symplectic, verify
from nilorbit.pairs import MixedClassifier, MixedInvariant, NonSplitError
from nilorbit.partitions import enumerate_bipartitions
from nilorbit.symplectic import (
    SignedPermutation,
    SymplecticSpace,
    _meet_positions,
    _meet_rows,
    b_stat,
    exotic_fiber_count,
    exotic_orbit_size,
    exotic_slice_count,
    identity_scaled,
    iotheta_set,
    isotropic_flags,
    key_orbit_polynomial,
    lagrangian_meet_dim,
    length,
    positive_roots_c,
    preserves_form,
    root_group_counts,
    signed_conjugate,
    signed_permutations,
    signed_rows,
    z_variety_count,
)
from nilorbit.verify import (
    _exotic_case_data,
    exotic_orbit_cases,
    exotic_total_failures,
    root_identity_row,
)
from oracles import (
    doubled_normal_form,
    encode,
    exotic_patterns,
    exotic_quotient_key,
    flag_unipotent_elements,
    h_orbit,
    in_flag_borel_coset,
    listed_z_variety_count,
    prime_key_orbit_size,
    product_root_group_counts,
    sp_generators,
    sp_order,
    stable_line_fiber_count,
    symplectic_transition,
    twisted_coset_set,
    type_c_poincare,
    unipotent_meet,
    unitriangular_elements,
)


def rank_one_factors(g, p):
    """The nonzero (index, entry) of a column a and of a row b with g - I = a b.

    Raises AssertionError unless g - I has rank one, as for a transvection.
    """
    n = len(g)
    d = [[(g[i][j] - (i == j)) % p for j in range(n)] for i in range(n)]
    b = next(row for row in d if any(row))
    k = next(j for j, e in enumerate(b) if e)
    inv = pow(b[k], -1, p)
    a = [row[k] * inv % p for row in d]
    assert all(d[i][j] == a[i] * b[j] % p for i in range(n) for j in range(n)), g
    return [(i, e) for i, e in enumerate(a) if e], [(j, e) for j, e in enumerate(b) if e]


def left_mul_rank_one(factors, m, p):
    """g m = m + a (b m) for g - I = a b: only the rows in supp(a) change."""
    sa, sb = factors
    bm = [0] * len(m)
    for k, e in sb:
        bm = [t + e * x for t, x in zip(bm, m[k])]
    out = list(m)
    for i, e in sa:
        out[i] = tuple((x + e * y) % p for x, y in zip(m[i], bm))
    return tuple(out)


def mulclose(gens, p, expect=None):
    """The group generated by transvections, closed by left multiplication."""
    factors = [rank_one_factors(g, p) for g in gens]
    els = set(gens)
    frontier = list(els)
    while frontier:
        fresh = []
        for f in factors:
            for b in frontier:
                c = left_mul_rank_one(f, b, p)
                if c not in els:
                    els.add(c)
                    fresh.append(c)
        frontier = fresh
        if expect and len(els) > expect:
            raise AssertionError("closure exceeded expected order")
    return els


def test_theta_involution_and_fixed_points():
    seed = 0
    for n in (1, 2):
        for p in (3, 5):
            space = SymplecticSpace(n, p)
            for _ in range(25):
                g = random_invertible(2 * n, p, seed)
                seed += 1
                assert space.theta(space.theta(g)) == g
    assert seed == 100


def test_theta_fixes_exactly_sp():
    space = SymplecticSpace(1, 3)
    fixed = {
        g
        for g in all_matrices(2, 3)
        if rank(g, 3) == 2 and space.theta(g) == g
    }
    symplectic = {
        g for g in all_matrices(2, 3) if rank(g, 3) == 2 and space.is_symplectic(g)
    }
    assert fixed == symplectic
    assert len(fixed) == sp_order(1, 3)


def in_twisted_set_by_theta(space, g):
    return mat_mul(space.theta(g), g, space.p) == identity(space.dim)


def test_linear_twisted_membership_matches_theta():
    for p in (2, 3, 5):
        space = SymplecticSpace(1, p)
        for g in all_matrices(2, p):
            if rank(g, p) == 2:
                assert space.in_twisted_set(g) == in_twisted_set_by_theta(space, g), g
    for n in (2, 3):
        for p in (3, 5):
            space = SymplecticSpace(n, p)
            for seed in range(20):
                g = random_invertible(2 * n, p, seed)
                point = mat_mul(g, space.theta_inv_of(g), p)
                assert space.in_twisted_set(point) and in_twisted_set_by_theta(space, point)
                assert space.in_twisted_set(g) == in_twisted_set_by_theta(space, g), g


def test_theta_inv_of_matches_products_on_invertible_matrices():
    rng = random.Random(14)
    for n in (1, 2, 3):
        for p in (2, 3, 5):
            space = SymplecticSpace(n, p)
            jinv = mat_inv(space.gram, p)
            for _ in range(10):
                g = random_invertible(2 * n, p, rng.randrange(10**9))
                expected = mat_mul(mat_mul(space.gram, transpose(g), p), jinv, p)
                assert space.theta_inv_of(g) == expected, (n, p, g)


def test_products_with_the_gram_matrix_match_mat_mul():
    rng = random.Random(15)
    for n in (1, 2, 3):
        for p in (2, 3, 5):
            space = SymplecticSpace(n, p)
            for _ in range(10):
                g = random_matrix(2 * n, p, rng)
                assert space.gram_times(g) == mat_mul(space.gram, g, p), (n, p, g)
                assert space.times_gram(g) == mat_mul(g, space.gram, p), (n, p, g)


def test_signed_conjugate_matches_products():
    rng = random.Random(16)
    for n in (1, 2, 3):
        for p in (2, 3, 5):
            space = SymplecticSpace(n, p)
            for h in [space.gram] + [w.matrix(space) for w in signed_permutations(n)]:
                rows = signed_rows(h)
                hinv = mat_inv(h, p)
                for _ in range(3):
                    y = random_matrix(2 * n, p, rng)
                    expected = mat_mul(mat_mul(h, y, p), hinv, p)
                    assert signed_conjugate(rows, y, p) == expected, (n, p, h, y)


def test_preserves_form_agrees_with_is_symplectic():
    for n in (1, 2, 3):
        for p in (3, 5):
            space = SymplecticSpace(n, p)
            for w in signed_permutations(n):
                h = w.matrix(space)
                assert preserves_form(space, h) and space.is_symplectic(h), (n, p, w.image)
                # negating row 0, the image of e_1, pairs it with the image of f_1 to -1
                flipped = (tuple(-c % p for c in h[0]),) + h[1:]
                assert not preserves_form(space, flipped), (n, p, w.image)
                assert not space.is_symplectic(flipped), (n, p, w.image)


def test_theta_on_scalars():
    space = SymplecticSpace(1, 5)
    g = identity_scaled(space, 2)
    assert space.theta(g) == identity_scaled(space, 3)  # 3 = 2^{-1} mod 5


def test_transvections_are_symplectic():
    for n in (1, 2):
        for p in (3, 5):
            space = SymplecticSpace(n, p)
            for g in sp_generators(space):
                assert space.is_symplectic(g)
                assert space.theta(g) == g


def test_sp_generation_small():
    for p in (3, 5):
        space = SymplecticSpace(1, p)
        els = mulclose(sp_generators(space), p, expect=sp_order(1, p))
        assert len(els) == sp_order(1, p)


def test_left_mul_rank_one_matches_mat_mul():
    rng = random.Random(17)
    for n in (1, 2):
        for p in (3, 5):
            space = SymplecticSpace(n, p)
            for g in sp_generators(space):
                factors = rank_one_factors(g, p)
                for _ in range(5):
                    m = random_matrix(2 * n, p, rng)
                    assert left_mul_rank_one(factors, m, p) == mat_mul(g, m, p), (g, m)


def test_sp4_generation():
    space = SymplecticSpace(2, 3)
    els = mulclose(sp_generators(space), 3, expect=sp_order(2, 3))
    assert len(els) == sp_order(2, 3) == 51840


def test_iotheta_set_n1():
    for p in (3, 5):
        space = SymplecticSpace(1, p)
        solution, image = iotheta_set(space)
        assert solution == image
        scalars = {identity_scaled(space, c) for c in range(1, p)}
        assert solution == scalars == image


def test_iotheta_image_twisted_conjugation_stable():
    p = 3
    space = SymplecticSpace(1, p)
    _, image = iotheta_set(space)
    for seed in range(10):
        g = random_invertible(2, p, seed)
        for x in image:
            # g x theta(g)^{-1} stays in the image set
            moved = mat_mul(mat_mul(g, x, p), space.theta_inv_of(g), p)
            assert moved in image


def test_iotheta_set_budget():
    space = SymplecticSpace(2, 3)
    with pytest.raises(BudgetExceededError, match="needs 43046721 matrices, budget is 1000"):
        iotheta_set(space, budget=1000)


def test_isotropic_flag_counts():
    for n, p in ((1, 3), (1, 5), (2, 3), (2, 5)):
        space = SymplecticSpace(n, p)
        flags = isotropic_flags(space)
        assert len(flags) == type_c_poincare(n, p)
        direct = sum(p ** length(w) for w in signed_permutations(n))
        assert len(flags) == direct
        for flag in flags[:20]:
            lag = flag[-1]
            assert lag.dim == n
            assert all(
                space.form(a, b) == 0 for a in lag.basis for b in lag.basis
            )


def test_isotropic_flags_budget_reports_progress():
    with pytest.raises(BudgetExceededError) as info:
        isotropic_flags(SymplecticSpace(1, 3), budget=3)
    assert str(info.value) == (
        "flag enumeration exceeded 3 nodes; completed 2 flags in 3 nodes visited"
    )


def test_isotropic_flags_n1_p3_count_is_4():
    assert len(isotropic_flags(SymplecticSpace(1, 3))) == 4


@pytest.mark.parametrize("p", [2, 5])
def test_isotropic_flags_start_from_the_perp_of_the_zero_space(p):
    # the perp of the zero space is the whole space, not the kernel of an
    # empty system: at n = 1 every one of the p + 1 lines is a flag
    flags = isotropic_flags(SymplecticSpace(1, p))
    assert sorted(flag[0].basis for flag in flags) == sorted(
        (line,) for line in Subspace.full(2, p).lines()
    )


def test_symplectic_transitions_move_standard_flag():
    p = 3
    space = SymplecticSpace(2, p)
    from nilorbit.gfmat import Subspace

    for flag in isotropic_flags(space):
        h = symplectic_transition(space, flag)
        assert space.is_symplectic(h)
        for k in (1, 2):
            moved = Subspace.from_vectors(
                [apply(b, h, p) for b in space.flag_step(k).basis], 4, p
            )
            assert moved.basis == flag[k - 1].basis


def test_flag_unipotent_count_and_shape():
    for n, p in ((1, 3), (2, 2)):
        space = SymplecticSpace(n, p)
        elements = list(flag_unipotent_elements(space))
        assert len(elements) == p ** (n * (2 * n - 1))
        for u in elements[:10]:
            assert in_flag_borel_coset(space, u, identity(2 * n))


def test_h_orbit_central_fixed_point():
    space = SymplecticSpace(1, 3)
    x = identity_scaled(space, 2)
    orbit = h_orbit(space, x, (0, 0))
    assert len(orbit) == 1


def test_h_orbit_closure_and_divisibility():
    p = 3
    space = SymplecticSpace(1, p)
    solution, _ = iotheta_set(space)
    gens = sp_generators(space)
    group_order = sp_order(1, p)
    for x in sorted(solution):
        for v in ((0, 0), (1, 0), (1, 1)):
            orbit = h_orbit(space, x, v)
            assert group_order % len(orbit) == 0
            # closure under every generator
            for state in list(orbit)[:5]:
                xm = tuple(
                    tuple(state[i * 2 + j] for j in range(2)) for i in range(2)
                )
                vm = tuple(state[4:])
                for g in gens:
                    gi = mat_inv(g, p)
                    moved_x = mat_mul(mat_mul(gi, xm, p), g, p)
                    moved_v = apply(vm, g, p)
                    assert encode(moved_x, moved_v) in orbit


def matrix_bfs_orbit(space, x, v):
    """The orbit closure with each generator applied as two matrix products."""
    p = space.p
    gens = [(g, mat_inv(g, p)) for g in sp_generators(space)]
    seen = {(x, v)}
    frontier = [(x, v)]
    while frontier:
        fresh = []
        for x0, v0 in frontier:
            for g, ginv in gens:
                pair = (mat_mul(mat_mul(ginv, x0, p), g, p), apply(v0, g, p))
                if pair not in seen:
                    seen.add(pair)
                    fresh.append(pair)
        frontier = fresh
    return seen


def test_h_orbit_matches_matrix_bfs():
    for n, primes in ((1, (3, 5)), (2, (3,))):
        for case in exotic_orbit_cases(n):
            for p in primes:
                space = SymplecticSpace(n, p)
                s, u, v = _exotic_case_data(case, space)
                x = mat_mul(s, u, p)
                orbit = h_orbit(space, x, v)
                oracle = matrix_bfs_orbit(space, x, v)
                assert len(orbit) == len(oracle), (n, p, case["name"])
                assert all(encode(y, w) in orbit for y, w in oracle)


def test_h_orbit_budget_reports_progress():
    space = SymplecticSpace(1, 3)
    with pytest.raises(BudgetExceededError) as info:
        h_orbit(space, identity(2), (1, 0), budget=3)
    assert str(info.value) == (
        "orbit exceeded budget of 3 states; reached 3 states while building BFS depth 2"
    )


def test_exotic_slice_examples_n1():
    # the central zero pair is its own slice
    for p in (3, 5):
        space = SymplecticSpace(1, p)
        s = identity_scaled(space, 1)
        u = identity(2)
        count, orbit_size, fiber = exotic_slice_count(space, s, u, (0, 0))
        assert count == 1 and orbit_size == 1
        assert fiber == p + 1
    # a nonzero vector: the slice is the punctured Lagrangian line
    counts = []
    for p in (3, 5, 7):
        space = SymplecticSpace(1, p)
        s = identity_scaled(space, 1)
        count, orbit_size, fiber = exotic_slice_count(space, s, identity(2), (1, 0))
        assert orbit_size == p * p - 1
        assert fiber == 1
        counts.append((p, count))
        assert count == p - 1
    assert slope_estimates(CountSeries.of(counts)) == [1, 1]


def lookup_slice_count(space, s, u, v):
    """Independent oracle: look up every pair of (sU)^{iota theta} x M_n in
    the BFS closure of (s u, v); returns (slice_count, orbit_size)."""
    p, n = space.p, space.n
    orbit = h_orbit(space, mat_mul(s, u, p), v)
    count = sum(
        encode(y, tail + (0,) * n) in orbit
        for y in twisted_coset_set(space, s)
        for tail in all_vectors(n, p)
    )
    return count, len(orbit)


def test_exotic_slice_count_matches_lookup_on_report_cases():
    # the unipotent-vector lookup runs at p = 5 only: at p = 7 it is a BFS
    # of 115,200 states, and the exotic --n 2 pin in tests/test_cli.py holds
    # its orbit size there
    for n, primes in ((1, (3, 5, 7)), (2, (3, 5))):
        for case in exotic_orbit_cases(n):
            for p in (5,) if case["name"] == "unipotent-vector" else primes:
                space = SymplecticSpace(n, p)
                s, u, v = _exotic_case_data(case, space)
                expected = lookup_slice_count(space, s, u, v)
                count, orbit_size, fiber = exotic_slice_count(space, s, u, v)
                assert (count, orbit_size) == expected, (n, p, case["name"])
                assert fiber == exotic_fiber_count(space, s, mat_mul(s, u, p), v)


def test_exotic_slice_count_matches_lookup_on_random_twisted_pairs():
    rng = random.Random(5)
    nonzero = 0
    for n, p, count in ((1, 3, 8), (1, 5, 8), (2, 3, 1)):
        space = SymplecticSpace(n, p)
        tori = [space.torus_twisted(t) for t in itertools.product(range(1, p), repeat=n)]
        for x in random_twisted_elements(space, rng, count):
            for tail in ((0,) * n, tuple(rng.randrange(p) for _ in range(n))):
                v = tail + (0,) * n
                for s in tori:
                    u = mat_mul(mat_inv(s, p), x, p)
                    expected = lookup_slice_count(space, s, u, v)
                    count, orbit_size, fiber = exotic_slice_count(space, s, u, v)
                    assert (count, orbit_size) == expected, (s, x, v)
                    assert fiber == exotic_fiber_count(space, s, x, v)
                    nonzero += expected[0] > 0
    assert nonzero >= 50


def test_exotic_slice_count_rejects_bad_input_before_the_orbit(monkeypatch):
    def no_orbit(*args):
        raise AssertionError("key_orbit_polynomial reached")

    monkeypatch.setattr(symplectic, "key_orbit_polynomial", no_orbit)
    space = SymplecticSpace(1, 3)
    s = space.torus_twisted([1])
    with pytest.raises(ValueError, match="Lagrangian"):
        exotic_slice_count(space, s, identity(2), (0, 1))
    with pytest.raises(ValueError, match="twisted set"):
        exotic_slice_count(space, s, ((1, 1), (0, 1)), (0, 0))
    # s u = diag(1, 2, 1, 2) is twisted, but s = diag(1, 2, 2, 1) is not diag(t, t)
    space = SymplecticSpace(2, 5)
    mirrored = ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1))
    u = mat_mul(mat_inv(mirrored, 5), space.torus_twisted([1, 2]), 5)
    with pytest.raises(ValueError, match="twisted torus"):
        exotic_slice_count(space, mirrored, u, (0, 0, 0, 0))


def test_exotic_slice_count_tests_twistedness_and_classifies_once(monkeypatch):
    builds, tests = [], []
    classifier, in_twisted_set = symplectic.MixedClassifier, SymplecticSpace.in_twisted_set
    monkeypatch.setattr(
        symplectic, "MixedClassifier", lambda *args: builds.append(args) or classifier(*args)
    )
    monkeypatch.setattr(
        SymplecticSpace, "in_twisted_set", lambda *args: tests.append(args) or in_twisted_set(*args)
    )
    space = SymplecticSpace(2, 5)
    for case in exotic_orbit_cases(2):
        s, u, v = _exotic_case_data(case, space)
        builds.clear()
        tests.clear()
        exotic_slice_count(space, s, u, v)
        assert (len(builds), len(tests)) == (1, 1), case["name"]


def test_exotic_slice_count_raises_on_a_nonzero_remainder(monkeypatch):
    fiber = symplectic._exotic_fiber

    def one_more_flag(*args):
        poly = fiber(*args)
        return (poly[0] + 1,) + poly[1:]

    monkeypatch.setattr(symplectic, "_exotic_fiber", one_more_flag)
    space = SymplecticSpace(1, 3)
    with pytest.raises(RuntimeError) as info:
        exotic_slice_count(space, space.torus_twisted([1]), identity(2), (0, 0))
    # |O| = 1 and the fiber 2 + q in place of P_C = 1 + q
    assert str(info.value) == "division in Z[q] is not exact: (2, 1) / (1, 1)"


# x = diag(A, A^T) with A of characteristic polynomial t^2 + 1, irreducible
# over F_3: x is twisted (J x = x^T J), and no eigenvalue of x lies in GF(3)
NON_SPLIT_TWISTED = ((0, 1, 0, 0), (2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 1, 0))


def test_exotic_slice_count_raises_on_a_non_split_x():
    p = 3
    space = SymplecticSpace(2, p)
    x = NON_SPLIT_TWISTED
    s = space.torus_twisted([1, 1])
    assert space.in_twisted_set(x)
    for v in ((0, 0, 0, 0), (1, 0, 0, 0)):
        # no conjugate of X holds x: no stable flag, and no pair in the slice
        assert exotic_fiber_count(space, s, x, v) == 0
        assert lookup_slice_count(space, s, x, v)[0] == 0
        with pytest.raises(NonSplitError):
            exotic_slice_count(space, s, x, v)
        with pytest.raises(NonSplitError):
            exotic_orbit_size(space, x, v)


def decode(state, d):
    """The pair (x, v) of an encoded BFS state of a d-dimensional space."""
    x = tuple(tuple(state[i * d : (i + 1) * d]) for i in range(d))
    return x, tuple(state[d * d :])


@pytest.mark.parametrize("p, pairs, orbits", [(3, 18, 4), (5, 100, 8)])
def test_classifier_separates_the_bfs_orbits_and_sizes_them_n1(p, pairs, orbits):
    # every split twisted pair (x, v), v in all of V: the invariant that
    # exotic_orbit_size reads is constant on each BFS orbit, differs between
    # orbits, and the closed form is each orbit's size
    space = SymplecticSpace(1, p)
    solution, _ = iotheta_set(space)
    split = {encode(x, v) for x in solution for v in all_vectors(2, p)}
    assert len(split) == pairs
    unvisited = set(split)
    invariants = []
    while unvisited:
        x, v = decode(min(unvisited), 2)
        orbit = h_orbit(space, x, v)
        found = {MixedClassifier(y, p).invariant(w) for y, w in (decode(z, 2) for z in orbit)}
        assert len(found) == 1, (x, v)
        invariants += found
        assert exotic_orbit_size(space, x, v) == len(orbit), (x, v)
        assert orbit <= unvisited
        unvisited -= orbit
    assert len(invariants) == len(set(invariants)) == orbits


def test_exotic_orbit_size_rejects_what_it_cannot_size(monkeypatch):
    space = SymplecticSpace(2, 3)
    with pytest.raises(ValueError, match="twisted set"):
        exotic_orbit_size(space, ((1, 1, 0, 0),) + identity(4)[1:], (0, 0, 0, 0))
    x = space.torus_twisted([1, 2])
    assert exotic_orbit_size(space, x, (0, 0, 0, 0)) == 90
    # a Sp_2 order off by one, q^3 - q + 1, leaves the division inexact
    def off_by_one(k):
        poly = sp_order_poly(k)
        poly[0] += k == 1
        return poly

    with monkeypatch.context() as m:
        m.setattr(symplectic, "sp_order_poly", off_by_one)
        key_orbit_polynomial.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="division in Z\\[q\\] is not exact"):
                exotic_orbit_size(space, x, (0, 0, 0, 0))
        finally:
            key_orbit_polynomial.cache_clear()

    class OddBlock:
        def __init__(self, x, p):
            pass

        def invariant(self, v):
            return MixedInvariant(((1, ((2, 1), (1,))),))

    monkeypatch.setattr(symplectic, "MixedClassifier", OddBlock)
    with pytest.raises(RuntimeError, match=r"\(3, 1\) is not of the form lam cup lam"):
        exotic_orbit_size(space, x, (0, 0, 0, 0))


def test_sp_order():
    assert [evaluate(sp_order_poly(m), 3) for m in (0, 1, 2)] == [1, 24, 51840]
    assert all(
        evaluate(sp_order_poly(n), p) == sp_order(n, p) for n in (1, 2, 3) for p in (2, 5)
    )


def test_exotic_fiber_examples_n1():
    # central pair with v = 0: every isotropic line counts
    for p in (3, 5):
        space = SymplecticSpace(1, p)
        s = identity_scaled(space, 1)
        assert exotic_fiber_count(space, s, s, (0, 0)) == p + 1
    # nonzero vector: only the line through v
    space = SymplecticSpace(1, 5)
    s = identity_scaled(space, 1)
    assert exotic_fiber_count(space, s, s, (1, 0)) == 1


def test_exotic_fiber_constant_on_orbit():
    p = 3
    space = SymplecticSpace(2, p)
    s = space.torus_twisted([1, 2])
    x = s
    v = (1, 0, 0, 0)
    base = exotic_fiber_count(space, s, x, v)
    for g in sp_generators(space)[:4]:
        gi = mat_inv(g, p)
        moved_x = mat_mul(mat_mul(gi, x, p), g, p)
        moved_v = apply(v, g, p)
        assert exotic_fiber_count(space, s, moved_x, moved_v) == base


def test_twisted_coset_set_n1():
    for p in (3, 5):
        space = SymplecticSpace(1, p)
        s = identity_scaled(space, 1)
        members = twisted_coset_set(space, s)
        assert members == [identity(2)]


def enumerated_twisted_coset_set(space, s):
    """(sU)^{iota theta} by testing every flag unipotent u."""
    out = []
    for u in flag_unipotent_elements(space):
        y = mat_mul(s, u, space.p)
        if space.in_twisted_set(y):
            out.append(y)
    return out


def test_twisted_coset_set_matches_enumeration():
    for n, primes in ((1, (2, 3, 5, 7)), (2, (3, 5))):
        for p in primes:
            space = SymplecticSpace(n, p)
            for torus in ([1] * n, list(range(1, n + 1)), [2] * n):
                if any(t % p == 0 for t in torus):
                    continue
                s = space.torus_twisted(torus)
                solved = sorted(twisted_coset_set(space, s))
                assert solved == sorted(enumerated_twisted_coset_set(space, s)), (n, p, torus)
                assert solved
    # diag(1, 2, 1, 1) is not a twisted torus element, and its coset misses the set
    space = SymplecticSpace(2, 5)
    s = ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert twisted_coset_set(space, s) == enumerated_twisted_coset_set(space, s) == []


def test_twisted_coset_set_n3_is_affine_of_dim_n_n_minus_1():
    n, p = 3, 3
    space = SymplecticSpace(n, p)
    for torus in ([1, 1, 1], [1, 2, 1], [2, 2, 2]):
        s = space.torus_twisted(torus)
        members = twisted_coset_set(space, s)
        assert len(members) == len(set(members)) == p ** (n * (n - 1))
        for y in members:
            assert space.in_twisted_set(y)
            assert in_flag_borel_coset(space, y, s)


def test_theta_inv_of_inverts_symplectic_transitions():
    p = 3
    space = SymplecticSpace(2, p)
    for flag in isotropic_flags(space):
        h = symplectic_transition(space, flag)
        assert space.theta_inv_of(h) == mat_inv(h, p)


def flag_transitions(space):
    """Every isotropic flag with its symplectic transition."""
    return [(flag, symplectic_transition(space, flag)) for flag in isotropic_flags(space)]


def flag_loop_fiber_count(space, transitions, s, x, v):
    """Independent oracle: over the isotropic flags whose Lagrangian step
    holds v, conjugate x by the flag's transition h and test h x h^-1 for
    flag triangularity with the diagonal of s in all 2n steps."""
    p = space.p
    count = 0
    for flag, h in transitions:
        if flag[-1].contains(v):
            y = mat_mul(mat_mul(h, x, p), space.theta_inv_of(h), p)
            count += in_flag_borel_coset(space, y, s)
    return count


def test_exotic_fiber_count_matches_flag_loop_on_report_cases():
    for n, primes in ((1, (3, 5, 7)), (2, (5, 7, 11))):
        for p in primes:
            space = SymplecticSpace(n, p)
            transitions = flag_transitions(space)
            for case in exotic_orbit_cases(n):
                s, u, v = _exotic_case_data(case, space)
                x = mat_mul(s, u, p)
                expected = flag_loop_fiber_count(space, transitions, s, x, v)
                assert exotic_fiber_count(space, s, x, v) == expected, (n, p, case["name"])


def random_twisted_elements(space, rng, count):
    """x = g theta(g)^-1 for random g, and Sp-conjugates of random members
    of the twisted cosets t U of twisted torus elements t."""
    n, p, dim = space.n, space.p, space.dim
    gens = sp_generators(space)
    tori = [space.torus_twisted(t) for t in itertools.product(range(1, p), repeat=n)]
    for _ in range(count):
        g = random_invertible(dim, p, rng.randrange(10**9))
        yield mat_mul(g, space.theta_inv_of(g), p)
        h = identity(dim)
        for _ in range(4 * dim):
            h = mat_mul(h, rng.choice(gens), p)
        y = rng.choice(twisted_coset_set(space, rng.choice(tori)))
        yield mat_mul(mat_mul(space.theta_inv_of(h), y, p), h, p)


def test_exotic_fiber_count_matches_flag_loop_on_random_twisted_pairs():
    rng = random.Random(12)
    nonzero = 0
    for n, p, count in ((1, 3, 20), (1, 5, 20), (2, 3, 12)):
        space = SymplecticSpace(n, p)
        transitions = flag_transitions(space)
        for t in itertools.product(range(1, p), repeat=n):
            s = space.torus_twisted(t)
            for x in random_twisted_elements(space, rng, count):
                assert space.in_twisted_set(x)
                for v in ((0,) * space.dim, tuple(rng.randrange(p) for _ in range(space.dim))):
                    expected = flag_loop_fiber_count(space, transitions, s, x, v)
                    assert exotic_fiber_count(space, s, x, v) == expected, (s, x, v)
                    nonzero += expected > 0
    assert nonzero >= 50


def test_exotic_fiber_count_rejects_untwisted_x():
    space = SymplecticSpace(1, 3)
    x = ((1, 1), (0, 1))
    assert not space.in_twisted_set(x)
    with pytest.raises(ValueError, match="twisted set"):
        exotic_fiber_count(space, space.torus_twisted([1]), x, (0, 0))


def test_exotic_fiber_count_rejects_s_outside_the_twisted_torus():
    space = SymplecticSpace(2, 5)
    x = space.torus_twisted([1, 2])
    mirrored = ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1))
    off_diagonal = ((1, 1, 0, 0),) + x[1:]
    for s in (mirrored, off_diagonal):
        with pytest.raises(ValueError, match="twisted torus"):
            exotic_fiber_count(space, s, x, (0, 0, 0, 0))


def test_exotic_fiber_count_rejects_p2():
    # p = 2 raises because the form is symmetric over GF(2); the exotic
    # line tables themselves are read off the partitions, with no prime
    space = SymplecticSpace(1, 2)
    s = space.torus_twisted([1])
    with pytest.raises(ValueError, match="odd prime"):
        exotic_fiber_count(space, s, s, (0, 0))


def enumerated_exotic_table(key, p):
    """{quotient key: lines} by classifying the quotient L^perp / L of every
    line L of ker x orthogonal to v in the doubled normal form."""
    x, v = doubled_normal_form(key, p)
    space = SymplecticSpace(len(x) // 2, p)
    found = Counter()
    for w in right_kernel(transpose(x) + space.times_gram((v,)), p).lines():
        found[exotic_quotient_key(space, x, v, w)] += 1
    return dict(found)


# every key with k <= 3 at p = 3 and 5, and every key of size 4 at p = 3;
# at ((1, 1), (1, 1)) an (a, b) pattern with b = max{b : w in I_b + K} holds
# lines of two quotient classes, and the (a, d) pattern separates them
EXOTIC_TABLE_CASES = [
    (key, p) for k in (1, 2, 3) for key in enumerate_bipartitions(k) for p in (3, 5)
] + [(key, 3) for key in enumerate_bipartitions(4)]


@pytest.mark.parametrize(
    "key, p", EXOTIC_TABLE_CASES, ids=[f"{key}-{p}" for key, p in EXOTIC_TABLE_CASES]
)
def test_exotic_tables_match_line_enumeration(key, p):
    table = {q: evaluate(lines, p) for q, lines in symplectic._exotic_table(key).items()}
    assert table == enumerated_exotic_table(key, p)


@pytest.mark.parametrize("k_max, p", [(6, 3), (5, 5)])
def test_exotic_line_patterns_match_rank_oracle(k_max, p):
    """The closed-form exotic patterns against rank computations on the
    doubled normal form, pattern by pattern, for every key with k <= k_max."""
    for k in range(1, k_max + 1):
        for key in enumerate_bipartitions(k):
            assert flags._line_patterns(key, exotic=True) == exotic_patterns(key, p), (key, p)


@pytest.mark.parametrize("p", [3, 5])
def test_key_orbit_sizes_match_the_doubled_normal_forms(p):
    """The orbit size read off an exotic key equals the classifier's size of
    1 + the doubled normal form of the key, for every key with k <= 3."""
    for k in (1, 2, 3):
        space = SymplecticSpace(k, p)
        for key in enumerate_bipartitions(k):
            x, v = doubled_normal_form(key, p)
            unipotent = tuple(
                tuple((c + (i == j)) % p for j, c in enumerate(row)) for i, row in enumerate(x)
            )
            size = evaluate(key_orbit_polynomial((key,)), p)
            assert size == exotic_orbit_size(space, unipotent, v), key


def exotic_key_tuples(n_max: int):
    """Every tuple of one or two exotic keys of total size 1..n_max."""
    for n in range(1, n_max + 1):
        for key in enumerate_bipartitions(n):
            yield (key,)
            for k in range(1, n_max - n + 1):
                for other in enumerate_bipartitions(k):
                    yield (key, other)


def test_key_orbit_polynomials_match_the_sizes_divided_at_primes():
    """The exotic orbit polynomial at p against the integer formula divided
    at p, for every one- or two-block key tuple of total size <= 4 and
    p = 3, 5, 7."""
    for keys in exotic_key_tuples(4):
        poly = key_orbit_polynomial(keys)
        for p in (3, 5, 7):
            assert evaluate(poly, p) == prime_key_orbit_size(keys, p), (keys, p)


@pytest.mark.parametrize("n", range(1, 6))
def test_key_orbit_polynomials_sum_to_the_exotic_cone(n):
    """Sum over (mu; nu) |- n of O(q) = q^(2n^2) in Z[q]: q^(2n^2 - 2n) twisted
    nilpotents times q^(2n) vectors, at every prime at once."""
    got = []
    for key in enumerate_bipartitions(n):
        poly_mul(key_orbit_polynomial((key,)), (1,), got)
    assert got == [0] * (2 * n * n) + [1]


def test_exotic_totals_hold():
    assert exotic_total_failures(5) == []


def test_exotic_totals_catch_a_broken_table(monkeypatch):
    """Dropping one exotic line pattern of ((1,), (1, 1)) loses fibers at
    n = 3, and the double count sees it."""
    patterns_of = symplectic._line_patterns

    def broken(key, exotic=False):
        patterns = patterns_of(key, exotic)
        return patterns[1:] if key == ((1,), (1, 1)) else patterns

    monkeypatch.setattr(symplectic, "_line_patterns", broken)
    symplectic._exotic_table.cache_clear()
    flags._fiber_polynomial.cache_clear()
    try:
        assert exotic_total_failures(2) == []
        assert [f["n"] for f in exotic_total_failures(4)] == [3, 4]
    finally:
        symplectic._exotic_table.cache_clear()
        flags._fiber_polynomial.cache_clear()


def test_exotic_fiber_count_matches_stable_line_walk():
    for n, primes in ((1, (3, 5, 7, 11)), (2, (3, 5, 7, 11))):
        for p in primes:
            space = SymplecticSpace(n, p)
            for case in exotic_orbit_cases(n):
                s, u, v = _exotic_case_data(case, space)
                x = mat_mul(s, u, p)
                expected = stable_line_fiber_count(space, s, x, v)
                assert exotic_fiber_count(space, s, x, v) == expected, (n, p, case["name"])
    # every doubled normal form at n = 3, shifted to the central torus
    p = 3
    space = SymplecticSpace(3, p)
    s = space.torus_twisted([1, 1, 1])
    for key in enumerate_bipartitions(3):
        x, v = doubled_normal_form(key, p)
        x = tuple(tuple((c + (i == j)) % p for j, c in enumerate(row)) for i, row in enumerate(x))
        assert exotic_fiber_count(space, s, x, v) == stable_line_fiber_count(space, s, x, v), key


def test_central_zero_fiber_is_the_type_c_poincare_polynomial():
    # (1, 0): every isotropic flag is stable, so the fiber polynomial is the
    # Poincare polynomial of W_k, the product of 1 + q + ... + q^(2i - 1)
    for k in range(1, 5):
        poincare = (1,)
        for i in range(1, k + 1):
            product = []
            poly_mul(poincare, (1,) * (2 * i), product)
            poincare = tuple(product)
        blocks = ((1, ((), (1,) * k)),)
        fiber = flags._fiber_polynomial(blocks, k, (1,) * k, symplectic._exotic_table)
        assert fiber == poincare == tuple(type_c_poincare_poly(k))
        assert evaluate(poincare, 7) == type_c_poincare(k, 7)
    for n in (1, 2):
        for p in (3, 5):
            space = SymplecticSpace(n, p)
            s = identity_scaled(space, 1)
            count = exotic_fiber_count(space, s, s, (0,) * space.dim)
            assert count == len(isotropic_flags(space)), (n, p)


def test_classifier_sizes_every_twisted_pair_n2_p3():
    # the twisted set is {J^-1 S : S skew and invertible}, since J x is skew
    # exactly for twisted x; every split one with every v falls into 14
    # classifier classes, and each class holds exotic_orbit_size pairs
    p = 3
    space = SymplecticSpace(2, p)
    j_inv = mat_inv(space.gram, p)
    upper = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    twisted = []
    for entries in itertools.product(range(p), repeat=len(upper)):
        skew = [[0] * 4 for _ in range(4)]
        for (i, j), c in zip(upper, entries):
            skew[i][j], skew[j][i] = c, -c % p
        if rank(skew, p) == 4:
            twisted.append(mat_mul(j_inv, tuple(map(tuple, skew)), p))
    assert len(twisted) == 468
    assert all(space.in_twisted_set(x) for x in twisted)
    classes = Counter()
    first = {}
    split = 0
    for x in twisted:
        try:
            classifier = MixedClassifier(x, p)
        except NonSplitError:
            continue
        split += 1
        for v in all_vectors(4, p):
            key = classifier.invariant(v)
            classes[key] += 1
            first.setdefault(key, (x, v))
    assert split == 252
    assert sum(classes.values()) == 20_412
    assert len(classes) == 14
    for key, size in classes.items():
        assert exotic_orbit_size(space, *first[key]) == size, key


def test_signed_permutation_basics():
    w = SignedPermutation((2, -1, 3))
    assert w(1) == 2 and w(2) == -1 and w(3) == 3
    winv = w.inverse()
    assert winv(2) == 1 and winv(1) == -2 and winv(3) == 3
    with pytest.raises(ValueError):
        SignedPermutation((1, 1))
    assert len(list(signed_permutations(2))) == 8
    assert len(list(signed_permutations(3))) == 48


def test_signed_permutation_matrix_symplectic():
    space = SymplecticSpace(2, 5)
    for w in signed_permutations(2):
        m = w.matrix(space)
        assert space.is_symplectic(m)


def test_positive_roots_and_length():
    assert len(positive_roots_c(2)) == 4
    assert len(positive_roots_c(3)) == 9
    identity_w = SignedPermutation((1, 2))
    assert length(identity_w) == 0
    longest = SignedPermutation((-1, -2))
    assert length(longest) == 4  # number of positive roots of C_2


def test_b_stat_examples():
    assert b_stat(SignedPermutation((1, 2, 3))) == 3
    assert b_stat(SignedPermutation((-1, 2))) == 1
    assert b_stat(SignedPermutation((-1, -2))) == 0


def test_lagrangian_meet_matches_b_stat():
    for n in (1, 2, 3):
        space = SymplecticSpace(n, 3)
        for w in signed_permutations(n):
            assert lagrangian_meet_dim(space, w) == b_stat(w)


def test_root_identity_exhaustive_n3():
    for n in (1, 2, 3):
        for w in signed_permutations(n):
            row = root_identity_row(w)
            assert row["combinatorial_ok"]
            assert row["ok"], row
            if n <= 2:
                assert len(row["group_checks"]) == 2  # p = 2 and 3


def test_unipotent_meet_matches_conjugation_filter():
    for n in (1, 2):
        for p in (2, 3):
            space = SymplecticSpace(n, p)
            unit = identity(2 * n)
            for w in signed_permutations(n):
                wmat = w.matrix(space)
                winv = mat_inv(wmat, p)
                filtered = {
                    u
                    for u in flag_unipotent_elements(space)
                    if in_flag_borel_coset(space, mat_mul(mat_mul(winv, u, p), wmat, p), unit)
                }
                direct = list(unipotent_meet(space, w))
                assert len(direct) == len(set(direct))
                assert set(direct) == filtered, (n, p, w.image)
                by_image = sum(
                    1 for u in direct if mat_mul(u, space.theta_inv_of(u), p) == unit
                )
                assert by_image == sum(1 for u in filtered if space.theta(u) == u)


def test_meet_rows_product_is_the_pattern_subgroup():
    for n in (1, 2):
        for p in (2, 3):
            space = SymplecticSpace(n, p)
            for w in signed_permutations(n):
                listed = list(itertools.product(*_meet_rows(space, w)))
                assert len(listed) == len(set(listed))
                pattern = unitriangular_elements(space.flag_order, p, _meet_positions(space, w))
                assert set(listed) == set(pattern), (n, p, w.image)


def test_root_group_counts_match_product_oracle():
    for n in (1, 2):
        for p in (2, 3, 5):
            space = SymplecticSpace(n, p)
            for w in signed_permutations(n):
                assert root_group_counts(space, w) == product_root_group_counts(space, w), (
                    n,
                    p,
                    w.image,
                )


def test_root_group_counts_match_product_oracle_at_rank_3():
    # the W_3 elements with at most 9 free positions keep the oracle at p^9 products
    space = SymplecticSpace(3, 2)
    chosen = [w for w in signed_permutations(3) if len(_meet_positions(space, w)) <= 9]
    assert len(chosen) == 33
    for w in chosen:
        assert root_group_counts(space, w) == product_root_group_counts(space, w), w.image


def skew_gram(space, g):
    return mat_mul(mat_mul(g, space.gram, space.p), transpose(g), space.p)


def test_twisted_image_times_j_is_the_skew_gram_matrix():
    for n in (1, 2, 3):
        for p in (2, 3, 5):
            space = SymplecticSpace(n, p)
            for seed in range(5):
                g = random_invertible(2 * n, p, seed)
                gram = skew_gram(space, g)
                y = mat_mul(g, space.theta_inv_of(g), p)
                assert mat_mul(y, space.gram, p) == gram, (n, p, seed)
                assert all(gram[i][i] == 0 for i in range(2 * n))
                assert all(
                    (gram[i][j] + gram[j][i]) % p == 0 for i in range(2 * n) for j in range(i)
                )
    for n in (1, 2):
        for p in (2, 3):
            space = SymplecticSpace(n, p)
            for w in signed_permutations(n):
                for u in unipotent_meet(space, w):
                    assert (skew_gram(space, u) == space.gram) == (space.theta(u) == u)


def test_root_identity_check_forms_no_product_per_element(monkeypatch):
    w = SignedPermutation((1, -2))
    expected = root_identity_row(w)  # also builds the Weyl matrices once

    def refuse(*args, **kwargs):
        raise AssertionError("root_identity_row formed u theta(u)^-1")

    monkeypatch.setattr(gfmat, "mat_mul", refuse)
    monkeypatch.setattr(symplectic, "mat_mul", refuse)
    monkeypatch.setattr(verify, "mat_mul", refuse)
    monkeypatch.setattr(SymplecticSpace, "theta_inv_of", refuse)
    assert root_identity_row(w) == expected


def test_root_identity_example_sign_flip():
    row = root_identity_row(SignedPermutation((-1, 2)))
    assert row["b_w"] == 1 and row["ok"]


def pointwise_z_count(space, s):
    """The double-flag variety point by point in (x, v): a point with k
    admissible flags contributes k^2 ordered flag pairs."""
    p = space.p
    base = twisted_coset_set(space, s)
    xsets = []
    lagrangians = []
    for flag in isotropic_flags(space):
        h = symplectic_transition(space, flag)
        hinv = mat_inv(h, p)
        xsets.append(frozenset(mat_mul(mat_mul(hinv, y, p), h, p) for y in base))
        lagrangians.append(flag[-1])
    count = 0
    for x in set().union(*xsets):
        for v in all_vectors(space.dim, p):
            hits = sum(
                1
                for xs, lag in zip(xsets, lagrangians)
                if x in xs and lag.contains(v)
            )
            count += hits * hits
    return count


def test_z_variety_count_against_pointwise_oracle():
    for n, p, torus in ((2, 3, [1, 1]), (2, 3, [1, 2]), (1, 3, [1]), (1, 5, [1])):
        space = SymplecticSpace(n, p)
        s = space.torus_twisted(torus)
        assert z_variety_count(space, s) == pointwise_z_count(space, s), (n, p, torus)


def test_z_variety_count_matches_listed_count():
    # at n = 2, [1, 2] has Weyl elements that move s; a twisted s solves its
    # own system, so only the untwisted diag(1, 2, 1, 1) reaches an inconsistent one
    cases = [
        (n, p, ([1] * n, list(range(1, n + 1)), [2] * n)) for n in (1, 2) for p in (2, 3, 5, 7)
    ]
    cases.append((3, 3, ([1, 1, 1], [1, 1, 2])))
    for n, p, tori in cases:
        space = SymplecticSpace(n, p)
        for torus in tori:
            if any(t % p == 0 for t in torus):
                continue
            s = space.torus_twisted(torus)
            assert z_variety_count(space, s) == listed_z_variety_count(space, s), (n, p, torus)
    for p in (3, 5):
        space = SymplecticSpace(2, p)
        s = ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert z_variety_count(space, s) == listed_z_variety_count(space, s) == 0


def test_z_variety_count_forms_no_product_and_lists_nothing(monkeypatch):
    space = SymplecticSpace(2, 5)
    s = space.torus_twisted([1, 2])
    expected = z_variety_count(space, s)  # also builds every Weyl matrix once

    def refuse(*args, **kwargs):
        raise AssertionError("z_variety_count multiplied or listed")

    for name in ("mat_mul", "mat_inv", "all_vectors", "all_matrices"):
        monkeypatch.setattr(gfmat, name, refuse)
        if hasattr(symplectic, name):
            monkeypatch.setattr(symplectic, name, refuse)
    assert z_variety_count(space, s) == expected
    with pytest.raises(ValueError, match="invertible diagonal"):
        z_variety_count(space, ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def test_z_variety_bound():
    counts = []
    for p in (3, 5):
        space = SymplecticSpace(2, p)
        counts.append((p, z_variety_count(space, space.torus_twisted([1, 1]))))
    assert all(e <= 8 for e in slope_estimates(CountSeries.of(counts)))
