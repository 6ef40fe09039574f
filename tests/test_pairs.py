"""Orbit classification of enhanced pairs: invariants and exact censuses."""

import itertools
from collections import Counter

import pytest

from nilorbit.counting import evaluate
from nilorbit.gfmat import (
    BudgetExceededError,
    PrimeField,
    Subspace,
    all_matrices,
    all_vectors,
    apply,
    gl_order,
    identity,
    induced_maps,
    is_nilpotent,
    jordan_matrix,
    mat_inv,
    mat_mul,
    random_invertible,
    zeros,
)
from nilorbit import pairs
from nilorbit.pairs import (
    COMMUTANT_CACHE_SIZE,
    EnhancedPair,
    MixedClassifier,
    MixedInvariant,
    NonSplitError,
    _class_polynomials,
    _classify_nilpotent,
    _commutant_basis,
    _nilpotent_profile,
    _normal_form,
    bipartition_from_types,
    census,
    centralizer_order,
    class_polynomial,
    classify,
    commutant,
    mixed_invariant,
    mixed_orbit_size,
    orbit_representative,
    orbit_size,
    split_eigenspaces,
    stab_dim,
)
from nilorbit.partitions import (
    a_stat,
    enumerate_bipartitions,
    enumerate_partitions,
    partition_sum,
)
from nilorbit.verify import CENSUS_POINTS, orbit_dimension_growth_failures
from oracles import commutant_spans, same_orbit, stabilizer_group_order, vector_class_counts


def conjugate_pair(z: EnhancedPair, seed: int) -> EnhancedPair:
    g = random_invertible(z.n, z.p, seed)
    return EnhancedPair(
        mat_mul(mat_mul(mat_inv(g, z.p), z.x, z.p), g, z.p),
        apply(z.v, g, z.p),
        z.p,
    )


def commutant_classify(x, v, p, basis=None):
    """Oracle: Jordan types of x on the commutant span C(x)v and on V/C(x)v."""
    if basis is None:
        basis = commutant(x, p)
    span = Subspace.from_vectors([apply(v, a, p) for a in basis], len(x), p)
    restriction, quotient = induced_maps(x, span, p)
    first, second = _nilpotent_profile(restriction, p)[0], _nilpotent_profile(quotient, p)[0]
    assert partition_sum(first, second) == _nilpotent_profile(x, p)[0]
    return (first, second)


def test_commutant_examples():
    assert len(commutant(zeros(2, 2), 5)) == 4
    for n in (2, 3, 4):
        basis = commutant(jordan_matrix((n,), 5), 5)
        assert len(basis) == n
    assert len(commutant(jordan_matrix((2, 1), 5), 5)) == 5


def test_commutant_dimension_formula():
    # dim = sum over i of (2i - 1) nu_i, the classical commutant dimension
    for p in (2, 5):
        for n in range(1, 6):
            for nu in enumerate_partitions(n):
                basis = commutant(jordan_matrix(nu, p), p)
                expected = sum((2 * i + 1) * part for i, part in enumerate(nu))
                assert len(basis) == expected


def test_commutant_actually_commutes():
    p = 3
    x = jordan_matrix((2, 1), p)
    for a in commutant(x, p):
        assert mat_mul(a, x, p) == mat_mul(x, a, p)


def test_classify_examples():
    assert classify(EnhancedPair(zeros(2, 2), (1, 0), 5)) == ((1, 1), ())
    for nu in ((3,), (2, 1), (1, 1, 1)):
        x = jordan_matrix(nu, 5)
        assert classify(EnhancedPair(x, (0,) * 3, 5)) == ((), nu)
    assert classify(EnhancedPair(jordan_matrix((2,), 5), (1, 0), 5)) == ((1,), (1,))


@pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)])
def test_krylov_classifier_matches_commutant_oracle(n, p):
    """Every nilpotent pair: the closed form from Krylov types against C(x)v."""
    pairs = 0
    for x in all_matrices(n, p):
        if not is_nilpotent(x, p):
            continue
        basis = commutant(x, p)
        for v in all_vectors(n, p):
            assert classify(EnhancedPair(x, v, p)) == commutant_classify(x, v, p, basis), (x, v)
            pairs += 1
    assert pairs == p ** (n * n - n) * p**n


def test_bipartition_from_types_examples():
    assert bipartition_from_types((2,), (1,)) == ((1,), (1,))
    assert bipartition_from_types((1, 1), (1,)) == ((1, 1), ())
    assert bipartition_from_types((3, 1), (3, 1)) == ((), (3, 1))
    assert bipartition_from_types((3, 1), (1,)) == ((3, 1), ())
    assert bipartition_from_types((3, 1), (2,)) == ((2, 1), (1,))
    assert bipartition_from_types((), ()) == ((), ())


@pytest.mark.parametrize(
    "lam,rho",
    [((1,), (2,)), ((1,), (1, 1)), ((3, 1), (2, 2)), ((2, 2), (1,))],
)
def test_bipartition_from_types_rejects_impossible_types(lam, rho):
    with pytest.raises(ValueError):
        bipartition_from_types(lam, rho)


def test_classify_requires_nilpotent():
    with pytest.raises(ValueError):
        classify(EnhancedPair(identity(2), (0, 0), 3))


def test_classify_conjugation_invariant_50_seeds():
    for p in (2, 3):
        for n in range(1, 4):
            for bla in enumerate_bipartitions(n):
                z = orbit_representative(bla, p)
                for seed in range(50):
                    assert classify(conjugate_pair(z, seed)) == bla


def test_classify_type_sum():
    p = 3
    for n in range(1, 4):
        for bla in enumerate_bipartitions(n):
            z = orbit_representative(bla, p)
            got = classify(z)
            assert partition_sum(got[0], got[1]) == _nilpotent_profile(z.x, p)[0]


def test_stab_dim_examples():
    assert stab_dim(EnhancedPair(zeros(2, 2), (0, 0), 5)) == 4
    assert stab_dim(EnhancedPair(jordan_matrix((2,), 5), (0, 1), 5)) == 0
    assert stab_dim(EnhancedPair(jordan_matrix((2,), 5), (1, 0), 5)) == 1


def test_stab_dim_matches_a_stat():
    """Mandatory agreement between the stabilizer kernel and the statistic."""
    for p in (2, 3, 5):
        for n in range(5):
            for bla in enumerate_bipartitions(n):
                z = orbit_representative(bla, p)
                assert stab_dim(z) == a_stat(bla), (bla, p)


def test_orbit_representative_examples():
    z = orbit_representative(((), (2, 1)), 5)
    assert z.x == jordan_matrix((2, 1), 5) and not any(z.v)
    z = orbit_representative(((3,), ()), 5)
    assert z.v == (0, 0, 1)  # cyclic vector at the top of the block
    z = orbit_representative(((1,), (1,)), 5)
    assert z.x == jordan_matrix((2,), 5) and z.v == (1, 0)


def test_mixed_invariant_examples():
    z = EnhancedPair(((1, 0), (0, 2)), (1, 0), 5)
    inv = mixed_invariant(z)
    assert inv.blocks == ((1, ((1,), ())), (2, ((), (1,))))
    assert inv.mu == 1

    x = ((1, 0, 0), (1, 1, 0), (0, 0, 2))
    inv = mixed_invariant(EnhancedPair(x, (0, 0, 0), 5))
    assert inv.blocks == ((1, ((), (2,))), (2, ((), (1,))))
    assert inv.mu == 0

    z = EnhancedPair(jordan_matrix((2,), 5), (1, 0), 5)
    inv = mixed_invariant(z)
    assert inv.blocks == ((0, ((1,), (1,))),)


def test_mixed_invariant_rejects_nonsplit():
    # companion matrix of an irreducible quadratic over GF(3): x^2 = x + 1
    x = ((0, 1), (1, 1))
    with pytest.raises(NonSplitError):
        mixed_invariant(EnhancedPair(x, (0, 0), 3))


def test_multiplicative_jordan_reading_agrees():
    """Classifying s*u via generalized eigenspaces matches classifying the
    unipotent part shifted by 1 on each eigenblock."""
    p = 7
    s = ((2, 0, 0), (0, 2, 0), (0, 0, 3))
    u = ((1, 0, 0), (1, 1, 0), (0, 0, 1))
    x = mat_mul(s, u, p)
    inv = mixed_invariant(EnhancedPair(x, (0, 0, 1), p))
    # eigenvalue 2: unipotent block u|_1 is a regular unipotent of size 2,
    # (u - 1) has type (2); v has no component there -> ((), (2,))
    # eigenvalue 3: 1-dim block, v marks it -> ((1,), ())
    assert inv.blocks == ((2, ((), (2,))), (3, ((1,), ())))
    assert inv.mu == 1


def test_same_orbit_examples():
    p = 3
    z = EnhancedPair(jordan_matrix((2, 1), p), (1, 0, 1), p)
    for seed in range(5):
        assert same_orbit(z, conjugate_pair(z, seed))
    z1 = EnhancedPair(jordan_matrix((2,), p), (0, 1), p)
    z2 = EnhancedPair(jordan_matrix((2,), p), (1, 0), p)
    assert not same_orbit(z1, z2)
    assert same_orbit(
        EnhancedPair(zeros(2, 2), (1, 0), p), EnhancedPair(zeros(2, 2), (0, 1), p)
    )


def test_census_examples():
    table = census(1, PrimeField(2))
    assert table == {((1,), ()): 1, ((), (1,)): 1}
    table = census(2, PrimeField(2))
    assert len(table) == 5
    assert table[((), (1, 1))] == 1
    assert sum(table.values()) == 2 ** (4 - 2) * 2**2


@pytest.mark.parametrize("n,p", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_census_keys_and_totals(n, p):
    table = census(n, PrimeField(p))
    assert sorted(table) == sorted(enumerate_bipartitions(n))
    assert all(c > 0 for c in table.values())
    assert sum(table.values()) == p ** (n * n - n) * p**n


def test_census_budget():
    with pytest.raises(BudgetExceededError):
        census(3, PrimeField(3), budget=100)


def census_by_scan(n, p):
    """Census oracle: every matrix goes through the profile, with no filter."""
    table = {bla: 0 for bla in enumerate_bipartitions(n)}
    for x in all_matrices(n, p):
        try:
            profile = _nilpotent_profile(x, p)
        except ValueError:
            continue
        for v in all_vectors(n, p):
            table[_classify_nilpotent(x, v, p, profile)] += 1
    return table


@pytest.mark.parametrize("n,p", list(CENSUS_POINTS) + [(2, 5)])
def test_census_matches_unfiltered_scan(n, p):
    assert census(n, PrimeField(p)) == census_by_scan(n, p)


def test_census_table_is_read_only():
    table = census(2, PrimeField(3))
    with pytest.raises(TypeError):
        table[((), (1, 1))] = 0
    assert census(2, PrimeField(3)) is table


def test_census_budget_is_checked_before_the_cache():
    assert sum(census(2, PrimeField(2)).values()) == 2**4  # fills the (n, p) cache
    with pytest.raises(BudgetExceededError, match=r"^census would scan 16 matrices, budget is 1$"):
        census(2, PrimeField(2), budget=1)


def test_orbit_size_examples():
    assert orbit_size(((), (1, 1, 1)), PrimeField(5)) == 1
    assert orbit_size(((1,), ()), PrimeField(3)) == 2
    assert orbit_size(((2,), ()), PrimeField(2)) == 6


def test_orbit_size_matches_census():
    for n, p in CENSUS_POINTS:  # up to (3, 2)
        for bla, count in census(n, PrimeField(p)).items():
            assert orbit_size(bla, PrimeField(p)) == count, (bla, p)


@pytest.mark.parametrize("p", [2, 3])
def test_orbit_size_of_the_empty_bipartition(p):
    assert orbit_size(((), ()), PrimeField(p)) == 1


def test_orbit_size_budget():
    # orbit_size enumerates no vectors, so it has no budget: 211^3 = 9,393,931
    # vectors, past the old 2M default, still give the closed form
    p = 211
    with pytest.raises(TypeError):
        orbit_size(((), (1, 1, 1)), PrimeField(7), budget=100)
    assert orbit_size(((3,), ()), PrimeField(p)) == gl_order(3, p)  # free orbit
    assert orbit_size(((), (1, 1, 1)), PrimeField(p)) == 1
    total = sum(orbit_size(bla, PrimeField(p)) for bla in enumerate_bipartitions(3))
    assert total == p**9


def test_orbit_size_budget_is_checked_before_the_cache():
    # the cache holds c_beta per lambda, not vector counts per (lambda, p), so
    # a new prime is served from it without a rebuild
    bla = ((1,), (1, 1))
    orbit_size(bla, PrimeField(7))  # fills the lambda = (2, 1) cache entry
    misses = _class_polynomials.cache_info().misses
    p = 211
    total = sum(
        orbit_size(b, PrimeField(p))
        for b in enumerate_bipartitions(3)
        if partition_sum(*b) == (2, 1)
    )
    assert _class_polynomials.cache_info().misses == misses
    assert total == gl_order(3, p) // centralizer_order((2, 1), p) * p**3


@pytest.mark.parametrize("n", range(6))
def test_class_polynomials_match_vector_counts(n):
    """c_beta at p against classifying every line of GF(p)^n, p^n <= 20,000."""
    for lam in enumerate_partitions(n):
        for p in (2, 3, 5, 7):
            if p**n > 20_000:
                continue
            got = {
                bla: evaluate(class_polynomial(bla), p)
                for bla in enumerate_bipartitions(n)
                if partition_sum(*bla) == lam
            }
            assert got == vector_class_counts(lam, p), (lam, p)


@pytest.mark.parametrize("p", [2, 3])
def test_class_spans_match_commutant_oracle(p):
    """The closed-form spans and below-sets against a commutant basis at p,
    for every partition with n <= 7."""
    for n in range(8):
        for lam in enumerate_partitions(n):
            assert pairs._class_spans(lam) == commutant_spans(lam, p), (lam, p)


def test_class_polynomial_examples():
    assert class_polynomial(((), ())) == (1,)
    assert class_polynomial(((), (1,))) == (1,)  # v = 0
    assert class_polynomial(((1,), ())) == (-1, 1)  # v != 0
    assert class_polynomial(((2,), ())) == (0, -1, 1)  # v outside ker J_2
    assert class_polynomial(((1, 1), ())) == (-1, 0, 1)  # x = 0, v != 0


def test_orbit_dimension_is_an_exact_degree():
    """n^2 - sum lam'_i^2 + deg c_beta = n^2 - a(beta) for every beta, n <= 6."""
    assert orbit_dimension_growth_failures(6, (3, 5, 7)) == []


def test_normal_form_cache_matches_a_fresh_build():
    for p in (2, 3):
        for n in range(4):
            for bla in enumerate_bipartitions(n):
                assert orbit_representative(bla, p) == _normal_form.__wrapped__(bla, p)
    assert orbit_representative([[2], [1]], 3) is orbit_representative(((2,), (1,)), 3)


def test_commutant_returns_a_fresh_list():
    x, p = jordan_matrix((2, 1), 5), 5
    basis = commutant(x, p)
    expected = list(basis)
    basis.pop()
    basis.append(zeros(3, 3))
    assert commutant(x, p) == expected == list(_commutant_basis.__wrapped__(x, p))
    assert commutant(x, p) is not commutant(x, p)


def test_commutant_cache_is_bounded():
    # the library's runs ask for a few dozen Jordan matrices; a caller that
    # passes more distinct matrices than the bound leaves the cache full, not
    # larger, and an evicted basis is rebuilt unchanged
    p = 5
    matrices = list(itertools.islice(all_matrices(2, p), COMMUTANT_CACHE_SIZE + 50))
    first = commutant(matrices[0], p)
    for x in matrices:
        commutant(x, p)
    info = _commutant_basis.cache_info()
    assert info.maxsize == COMMUTANT_CACHE_SIZE >= 100
    assert info.currsize == COMMUTANT_CACHE_SIZE
    assert commutant(matrices[0], p) == first


def test_commutant_of_the_empty_matrix():
    assert commutant((), 5) == []


def test_split_eigenspaces_of_the_empty_matrix():
    assert split_eigenspaces((), 5) == []
    assert MixedClassifier((), 5).invariant(()) == MixedInvariant(())


@pytest.mark.parametrize("n,p", [(n, p) for n in range(4) for p in (2, 3)] + [(4, 2)])
def test_orbit_size_matches_stabilizer_oracle(n, p):
    """Closed form against |GL_n| / |Stab| by enumeration of I + S0."""
    for bla in enumerate_bipartitions(n):
        stab = stabilizer_group_order(orbit_representative(bla, p))
        assert orbit_size(bla, PrimeField(p)) * stab == gl_order(n, p), (bla, p)


@pytest.mark.parametrize(
    "n,p", [(n, p) for n in range(6) for p in (2, 3, 5, 7, 11, 101)]
)
def test_orbit_sizes_sum_to_all_pairs(n, p):
    """Fine-Herstein: p^(n^2 - n) nilpotents times p^n vectors."""
    total = sum(orbit_size(bla, PrimeField(p)) for bla in enumerate_bipartitions(n))
    assert total == p ** (n * n)


def test_centralizer_order_matches_stabilizer_of_zero_vector():
    p = 3
    for n in range(4):
        for lam in enumerate_partitions(n):
            z = orbit_representative(((), lam), p)
            assert centralizer_order(lam, p) == stabilizer_group_order(z), lam


def test_mixed_classifier_batches():
    p = 5
    x = ((1, 0), (0, 2))
    mc = MixedClassifier(x, p)
    for v in ((0, 0), (1, 0), (0, 1), (1, 1)):
        assert mc.invariant(v) == mixed_invariant(EnhancedPair(x, v, p))


@pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)])
def test_mixed_orbit_size_matches_tally(n, p):
    """Closed-form sizes of split orbits against a tally of every split pair."""
    tally = Counter()
    for x in all_matrices(n, p):
        try:
            classifier = MixedClassifier(x, p)
        except NonSplitError:
            continue
        for v in all_vectors(n, p):
            tally[classifier.invariant(v)] += 1
    for inv, count in tally.items():
        assert mixed_orbit_size(inv, PrimeField(p)) == count, inv


def test_mixed_orbit_size_raises_on_an_inexact_division(monkeypatch):
    monkeypatch.setattr(pairs, "centralizer_order", lambda lam, p: 7)
    with pytest.raises(RuntimeError, match=r"^orbit-size division is not exact: 12 / 7$"):
        orbit_size(((2,), ()), PrimeField(2))  # |GL_2| c(2) = 6 * 2
