"""Symplectic side: involution, twisted sets, flags, orbits, root identities."""

import functools
import itertools
import random

import pytest

from nilorbit.counting import CountSeries, slope_dim
from nilorbit.gfmat import (
    BudgetExceededError,
    all_matrices,
    all_vectors,
    apply,
    identity,
    mat_inv,
    mat_mul,
    random_invertible,
    rank,
)
from nilorbit import symplectic
from nilorbit.symplectic import (
    SignedPermutation,
    SymplecticSpace,
    _encode,
    b_stat,
    exotic_fiber_count,
    exotic_slice_count,
    flag_unipotent_elements,
    h_orbit,
    identity_scaled,
    in_flag_borel_coset,
    iotheta_set,
    isotropic_flags,
    lagrangian_meet_dim,
    length,
    positive_roots_c,
    root_identity_check,
    signed_permutations,
    sp_generators,
    symplectic_transition,
    twisted_coset_set,
    type_c_poincare,
    unipotent_meet,
    z_variety_count,
)
from nilorbit.verify import EXOTIC_FIBER_PRIMES, _exotic_case_data, exotic_orbit_cases


def mulclose(gens, p, expect=None):
    els = set(gens)
    frontier = list(els)
    while frontier:
        fresh = []
        for a in gens:
            for b in frontier:
                c = mat_mul(a, b, p)
                if c not in els:
                    els.add(c)
                    fresh.append(c)
        frontier = fresh
        if expect and len(els) > expect:
            raise AssertionError("closure exceeded expected order")
    return els


def sp_order(n, p):
    out = p ** (n * n)
    for i in range(1, n + 1):
        out *= p ** (2 * i) - 1
    return out


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
                    assert _encode(moved_x, moved_v) in orbit


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
                assert all(_encode(y, w) in orbit for y, w in oracle)


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
        count, orbit_size = exotic_slice_count(space, s, u, (0, 0))
        assert count == 1 and orbit_size == 1
    # a nonzero vector: the slice is the punctured Lagrangian line
    counts = []
    for p in (3, 5, 7):
        space = SymplecticSpace(1, p)
        s = identity_scaled(space, 1)
        count, orbit_size = exotic_slice_count(space, s, identity(2), (1, 0))
        assert orbit_size == p * p - 1
        counts.append((p, count))
        assert count == p - 1
    assert slope_dim(CountSeries.of(counts)) == 1


@pytest.fixture
def shared_orbits(monkeypatch):
    """Build each h_orbit closure once, for exotic_slice_count and its oracle."""
    monkeypatch.setattr(symplectic, "h_orbit", functools.lru_cache(maxsize=None)(h_orbit))


def lookup_slice_count(space, s, u, v):
    """Independent oracle: look up every pair of (sU)^{iota theta} x M_n in
    the BFS closure of (s u, v); returns (slice_count, orbit_size)."""
    p, n = space.p, space.n
    orbit = symplectic.h_orbit(space, mat_mul(s, u, p), v)
    count = sum(
        _encode(y, tail + (0,) * n) in orbit
        for y in twisted_coset_set(space, s)
        for tail in all_vectors(n, p)
    )
    return count, len(orbit)


def test_exotic_slice_count_matches_lookup_on_report_cases(shared_orbits):
    # the slow case's BFS at p = 7 is left to criterion 7
    for n, primes in ((1, (3, 5, 7)), (2, (3, 5))):
        for case in exotic_orbit_cases(n):
            for p in (5,) if case.get("slow") else primes:
                space = SymplecticSpace(n, p)
                s, u, v = _exotic_case_data(case, space)
                expected = lookup_slice_count(space, s, u, v)
                assert exotic_slice_count(space, s, u, v) == expected, (n, p, case["name"])


def test_exotic_slice_count_matches_lookup_on_random_twisted_pairs(shared_orbits):
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
                    assert exotic_slice_count(space, s, u, v) == expected, (s, x, v)
                    nonzero += expected[0] > 0
    assert nonzero >= 50


def test_exotic_slice_count_rejects_bad_input_before_the_orbit(monkeypatch):
    def no_orbit(*args):
        raise AssertionError("h_orbit reached")

    monkeypatch.setattr(symplectic, "h_orbit", no_orbit)
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


def test_exotic_slice_count_raises_on_a_nonzero_remainder(monkeypatch):
    fiber_count = symplectic.exotic_fiber_count
    monkeypatch.setattr(
        symplectic, "exotic_fiber_count", lambda *args: fiber_count(*args) + 1
    )
    space = SymplecticSpace(1, 3)
    with pytest.raises(RuntimeError) as info:
        exotic_slice_count(space, space.torus_twisted([1]), identity(2), (0, 0))
    assert str(info.value) == (
        "double count is not exact: |O| * fiber = 5 is not divisible by the 4 "
        "isotropic flags"
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
    for n, primes in EXOTIC_FIBER_PRIMES.items():
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
            report = root_identity_check(w)
            assert report.combinatorial_ok
            assert report.ok, report.to_json()
            if n <= 2:
                assert len(report.group_checks) == 2  # p = 2 and 3


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


def test_root_identity_example_sign_flip():
    report = root_identity_check(SignedPermutation((-1, 2)))
    assert report.b_w == 1 and report.ok


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


def test_z_variety_bound():
    counts = []
    for p in (3, 5):
        space = SymplecticSpace(2, p)
        counts.append((p, z_variety_count(space, space.torus_twisted([1, 1]))))
    from nilorbit.counting import slope_estimates

    assert all(e <= 8 for e in slope_estimates(CountSeries.of(counts)))
