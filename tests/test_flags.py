"""Flag fiber counts: oracles, covariance, reports, covering degrees, slices."""

import itertools
import json
import random
from collections import Counter
from math import factorial

import pytest

from nilorbit.counting import (
    CountSeries,
    evaluate,
    gaussian_factorial_poly,
    poly_mul,
    slope_estimates,
)
from nilorbit import flags, gfmat, pairs, symplectic
from nilorbit.cli import main
from nilorbit.flags import (
    FlagCondition,
    _fiber_polynomial,
    _poly_table,
    count_fiber,
    fiber_dimension,
    galois_degree_check,
    slice_count,
    springer_report,
)
from nilorbit.gfmat import (
    BudgetExceededError,
    PrimeField,
    Subspace,
    all_matrices,
    all_vectors,
    apply,
    mat_inv,
    mat_mul,
    partition_from_ranks,
    power_images,
    random_invertible,
    random_matrix,
    rank,
    right_kernel,
    transpose,
    zeros,
)
from nilorbit.pairs import (
    EnhancedPair,
    MixedClassifier,
    NonSplitError,
    bipartition_from_types,
    krylov_basis,
    mixed_invariant,
    orbit_representative,
)
from nilorbit.partitions import enumerate_bipartitions, partition_sum, size, total
from nilorbit.verify import slice_cases, springer_total_failures
from oracles import count_plain, pattern_dimensions, unitriangular_elements


def coset_fiber_count(x, v, m, p):
    """Independent oracle: count flags as Borel cosets inside GL_n.

    Flags are row-space chains of invertible matrices; each flag is hit by
    exactly |B| = (p-1)^n p^{n(n-1)/2} elements.
    """
    n = len(x)
    if m == 0 and any(v):
        return 0
    hits = 0
    for g in all_matrices(n, p):
        if rank(g, p) < n:
            continue
        good = True
        for k in range(1, n + 1):
            step = Subspace.from_vectors(g[:k], n, p)
            if k == m and not step.contains(v):
                good = False
                break
            if not all(step.contains(apply(row, x, p)) for row in g[:k]):
                good = False
                break
        if good:
            hits += 1
    borel = (p - 1) ** n * p ** (n * (n - 1) // 2)
    count, rem = divmod(hits, borel)
    assert rem == 0
    return count


@pytest.mark.parametrize("p", [2, 3])
def test_fiber_matches_coset_oracle(p):
    for n in (1, 2):
        for bmu in enumerate_bipartitions(n):
            z = orbit_representative(bmu, p)
            for m in range(n + 1):
                expected = coset_fiber_count(z.x, z.v, m, p)
                got = count_fiber(FlagCondition(z.x, z.v, m, p))
                assert got == expected, (bmu, m, p)


def test_fiber_examples():
    for p in (2, 3, 5):
        z = orbit_representative(((1,), (1,)), p)
        assert count_fiber(FlagCondition(z.x, z.v, 1, p)) == 1
    for p in (2, 3, 5):
        assert count_fiber(FlagCondition(zeros(2, 2), (1, 1), 2, p)) == 1 + p
    for n, m in ((2, 1), (3, 2), (4, 2)):
        bmu = ((m,), (n - m,))
        for p in (2, 3):
            z = orbit_representative(bmu, p)
            assert count_fiber(FlagCondition(z.x, z.v, m, p)) == 1


def test_plain_and_memo_agree():
    for p in (2, 3):
        for n in range(4):
            for bmu in enumerate_bipartitions(n):
                z = orbit_representative(bmu, p)
                for m in range(n + 1):
                    plain = count_plain(z.x, z.v, m, p)
                    memo = count_fiber(FlagCondition(z.x, z.v, m, p))
                    assert plain == memo, (bmu, m, p)


def test_memo_matches_plain_on_conjugated_normal_forms():
    p = 2
    for n in range(5):
        for seed, bmu in enumerate(enumerate_bipartitions(n)):
            z = orbit_representative(bmu, p)
            g = random_invertible(n, p, seed)
            x = mat_mul(mat_mul(mat_inv(g, p), z.x, p), g, p)
            v = apply(z.v, g, p)
            for m in range(n + 1):
                plain = count_plain(x, v, m, p)
                memo = count_fiber(FlagCondition(x, v, m, p))
                assert plain == memo, (bmu, m)


@pytest.mark.parametrize("p", [3, 5])
def test_memo_matches_plain_on_random_split_pairs(p):
    rng = random.Random(p)
    split = nonsplit = 0
    for trial in range(60):
        n = 1 + trial % 3
        x = random_matrix(n, p, rng)
        v = tuple(rng.randrange(p) for _ in range(n))
        try:
            MixedClassifier(x, p)
        except NonSplitError:
            nonsplit += 1
        else:
            split += 1
        for m in range(n + 1):
            condition = FlagCondition(x, v, m, p)
            assert count_plain(x, v, m, p) == count_fiber(condition), (x, v, m)
    assert split and nonsplit


def enumerated_transition_table(bla, p):
    """Independent oracle: sort every line of ker x by the spaces that contain it.

    With I_k the row space of x^k and K the Krylov span of v, the quotient
    by L = <w> has rank x^k = dim I_k - [w in I_k] on V/L and
    dim(I_k + K) + [w not in I_k + K] - dim(K + L) on V/(K + L).
    """
    z = orbit_representative(bla, p)
    n = z.n
    kernel = right_kernel(transpose(z.x), p)
    images = power_images(z.x, p)
    krylov = Subspace.from_vectors(krylov_basis(z.x, z.v, p), n, p)
    # I_0 = V contains every line and the zero space none; I_k + K ends with K.
    inner = images[1:-1]
    joined = [space.sum(krylov) for space in images[1:]]
    probes = inner + joined
    patterns = Counter(tuple(space.contains(w) for space in probes) for w in kernel.lines())
    out = Counter()
    for bits, count in patterns.items():
        in_image, in_joined = bits[: len(inner)], bits[len(inner) :]
        lam = partition_from_ranks(
            [n - 1] + [space.dim - b for space, b in zip(inner, in_image)] + [0]
        )
        k_and_l = krylov.dim + (not in_joined[-1])
        rho = partition_from_ranks(
            [n - k_and_l]
            + [space.dim + (not b) - k_and_l for space, b in zip(joined, in_joined)]
        )
        out[bipartition_from_types(lam, rho)] += count
    return dict(out)


@pytest.mark.parametrize("n_max,p", [(5, 2), (5, 3), (4, 5), (4, 7)])
def test_transition_tables_match_line_enumeration(n_max, p):
    for n in range(1, n_max + 1):
        for bla in enumerate_bipartitions(n):
            got = {key: evaluate(lines, p) for key, lines in _poly_table(bla).items()}
            assert got == enumerated_transition_table(bla, p), (bla, p)


def test_transition_tables_count_every_line_of_the_kernel():
    for p in (2, 3):
        for n in range(1, 5):
            for bla in enumerate_bipartitions(n):
                table = {q: evaluate(lines, p) for q, lines in _poly_table(bla).items()}
                ell = len(partition_sum(*bla))
                assert sum(table.values()) == (p**ell - 1) // (p - 1), (bla, p)
                assert all(total(quotient) == n - 1 for quotient in table)


@pytest.mark.parametrize("p", [2, 3])
def test_line_patterns_match_rank_oracle(p):
    """The closed-form patterns against rank computations on the normal form,
    for every bipartition with n <= 7."""
    for n in range(1, 8):
        for bla in enumerate_bipartitions(n):
            assert flags._line_patterns(bla) == pattern_dimensions(bla, p), (bla, p)


def test_line_tables_and_counts_do_no_linear_algebra(monkeypatch):
    """Type-A and exotic line tables, class polynomials and fiber polynomials
    come from the partitions alone: no rank, kernel, image, span or
    classification is formed."""

    def refuse(*args, **kwargs):
        raise AssertionError("a count path did GF(p) linear algebra")

    _poly_table.cache_clear()
    symplectic._exotic_table.cache_clear()
    _fiber_polynomial.cache_clear()
    pairs._class_polynomials.cache_clear()
    for name in ("rank", "right_kernel", "power_images", "induced_maps", "classify"):
        for module in (gfmat, flags, pairs, symplectic):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(Subspace, "from_vectors", staticmethod(refuse))
    for n in range(1, 6):
        for bla in enumerate_bipartitions(n):
            _poly_table(bla)
            pairs.class_polynomial(bla)
            symplectic._exotic_table(bla)
            _fiber_polynomial(((1, bla),), n, (1,) * n, symplectic._exotic_table)
    for n in range(5):
        for bla in enumerate_bipartitions(n):
            springer_report(bla, size(bla[0]))


def test_springer_totals_hold():
    assert springer_total_failures(5, (2, 3, 5)) == []


def test_springer_totals_catch_a_broken_table(monkeypatch):
    """Dropping one line pattern of ((1,), (1, 1)) loses fibers at n = 3,
    and the double count sees it."""
    patterns_of = flags._line_patterns

    def broken(bla):
        patterns = patterns_of(bla)
        return patterns[1:] if bla == ((1,), (1, 1)) else patterns

    monkeypatch.setattr(flags, "_line_patterns", broken)
    _poly_table.cache_clear()
    _fiber_polynomial.cache_clear()
    try:
        assert springer_total_failures(2, (2,)) == []
        assert springer_total_failures(3, (2,)) != []
    finally:
        _poly_table.cache_clear()
        _fiber_polynomial.cache_clear()


def test_plain_budget_reports_progress():
    with pytest.raises(BudgetExceededError) as info:
        count_plain(zeros(2, 2), (0, 0), 2, 2, budget=3)
    assert str(info.value) == (
        "flag enumeration exceeded 3 nodes; visited 3 nodes and found 1 complete "
        "flags, stopped at depth 1 of 2"
    )


def split_block_keys(n, p):
    """Every eigenvalue-indexed bipartition key on GF(p)^n, eigenvalues 0, 1, ..."""
    keys = []
    for k in range(1, min(n, p) + 1):
        for sizes in itertools.product(range(1, n + 1), repeat=k):
            if sum(sizes) != n:
                continue
            for bips in itertools.product(*(enumerate_bipartitions(d) for d in sizes)):
                keys.append(tuple(zip(range(k), bips)))
    return keys


def direct_sum_pair(blocks, p):
    """Block diagonal pair with block a equal to (a + x_beta, v_beta) in normal form."""
    n = sum(total(bla) for _, bla in blocks)
    rows = [[0] * n for _ in range(n)]
    v = []
    offset = 0
    for a, bla in blocks:
        z = orbit_representative(bla, p)
        for i in range(z.n):
            for j in range(z.n):
                rows[offset + i][offset + j] = (z.x[i][j] + (a if i == j else 0)) % p
        v.extend(z.v)
        offset += z.n
    return tuple(tuple(r) for r in rows), tuple(v)


@pytest.mark.parametrize("p", [3, 5])
def test_ordered_fibers_add_up_to_the_fiber(p):
    """Summing fiber_s over the orderings of the eigenvalues gives count_fiber."""
    for n in range(1, 4):
        for blocks in split_block_keys(n, p):
            x, v = direct_sum_pair(blocks, p)
            orders = set(
                itertools.permutations([a for a, bla in blocks for _ in range(total(bla))])
            )
            for m in range(n + 1):
                ordered = sum(
                    evaluate(_fiber_polynomial(blocks, m, order), p)
                    for order in orders
                )
                assert ordered == count_fiber(FlagCondition(x, v, m, p)), (blocks, m)


def slice_case_fiber_counts(p, ordered_first, cold=False):
    """Ordered slice counts and unordered fiber counts of the slice cases with
    n in {2, 3}, from an empty fiber cache; when cold, the cache is emptied
    before every count."""
    ordered, unordered = [], []
    _fiber_polynomial.cache_clear()
    for n in (2, 3):
        for case in slice_cases(n):
            s, z = build_slice_data(case["diag"], case["unip"], case["vtail"], n, p)
            for m in range(len(case["vtail"]), n + 1):
                counts = [
                    (ordered, lambda: slice_count(s, z, m, PrimeField(p))),
                    (unordered, lambda: count_fiber(FlagCondition(z.x, z.v, m, p))),
                ]
                for out, count in counts if ordered_first else counts[::-1]:
                    if cold:
                        _fiber_polynomial.cache_clear()
                    out.append(count())
    return ordered, unordered


@pytest.mark.parametrize("ordered_first", [True, False])
def test_fiber_cache_gives_the_counts_of_an_empty_cache(ordered_first):
    """Ordered and unordered counts share the process-wide cache, and neither
    changes what the other reads from it."""
    expected = slice_case_fiber_counts(5, True, cold=True)
    assert slice_case_fiber_counts(5, ordered_first) == expected


def test_springer_reports_are_the_same_cold_and_warm():
    """A warm report reads its polynomial from the cache, one hit each."""
    _fiber_polynomial.cache_clear()
    cold = [springer_report(bmu, size(bmu[0])) for bmu in enumerate_bipartitions(4)]
    before = _fiber_polynomial.cache_info()
    warm = [springer_report(bmu, size(bmu[0])) for bmu in enumerate_bipartitions(4)]
    after = _fiber_polynomial.cache_info()
    assert warm == cold
    assert (after.hits - before.hits, after.misses) == (len(cold), before.misses)


def test_fiber_conjugation_covariant():
    p = 3
    for n in (2, 3):
        for bmu in enumerate_bipartitions(n):
            z = orbit_representative(bmu, p)
            m = size(bmu[0])
            base = count_fiber(FlagCondition(z.x, z.v, m, p))
            for seed in range(3):
                g = random_invertible(n, p, seed)
                moved = FlagCondition(
                    mat_mul(mat_mul(mat_inv(g, p), z.x, p), g, p),
                    apply(z.v, g, p),
                    m,
                    p,
                )
                assert count_fiber(moved) == base


def test_fiber_nonsplit_falls_back_to_plain():
    # irreducible quadratic action: no stable lines, so no stable flags
    x = ((0, 1), (1, 1))
    for m in (0, 1, 2):
        condition = FlagCondition(x, (0, 0), m, 3)
        assert count_fiber(condition) == 0
        assert count_plain(x, (0, 0), m, 3) == 0


def test_fiber_dimension_formula():
    assert fiber_dimension(((1,), (1,))) == 0
    assert fiber_dimension(((1, 1, 1, 1), ())) == 6
    assert fiber_dimension(((2,), (2,))) == 0
    assert fiber_dimension(((1, 1), (1, 1))) == 2


def test_springer_report_top_orbit():
    for n, m in ((2, 1), (3, 1), (3, 2), (4, 2)):
        rep = springer_report(((m,), (n - m,)), m)
        assert rep.d_mu == 0
        assert rep.degree_ok and rep.leading_ok
        assert rep.polynomial == (1,)


def product_poly(m, k):
    return poly_mul(gaussian_factorial_poly(m), gaussian_factorial_poly(k))


def test_springer_report_column_case_where_product_holds():
    cases = [(n, m) for n in (2, 3) for m in range(n + 1)]
    cases += [(4, 0), (4, 1), (4, 4)]
    for n, m in cases:
        bmu = ((1,) * m, (1,) * (n - m))
        rep = springer_report(bmu, m)
        assert rep.degree_ok and rep.leading_ok
        assert list(rep.polynomial) == product_poly(m, n - m)


def test_springer_report_column_case_true_counts_n4():
    """The actual fiber polynomials where the product description of the
    fiber breaks down: extra lower-dimensional flag families appear.

    Pinned from two independent enumerations (DFS and raw coset counting);
    degree and leading coefficient still agree with the product.
    """
    rep = springer_report(((1, 1), (1, 1)), 2)
    assert rep.polynomial == (1, 3, 1)
    assert rep.degree_ok and rep.leading_ok
    rep = springer_report(((1, 1, 1), (1,)), 3)
    assert rep.polynomial == (1, 3, 4, 1)
    assert rep.degree_ok and rep.leading_ok


def test_springer_report_example_n2():
    rep = springer_report(((1,), (1,)), 1)
    assert rep.d_mu == 0 and rep.polynomial == (1,)
    assert rep.leading_ok and rep.degree_ok


def test_springer_report_validates_step():
    with pytest.raises(ValueError):
        springer_report(((1,), (1,)), 2)


def test_springer_report_validates_primes():
    for primes in ((4, 9, 25), (1, 5, 7)):
        with pytest.raises(ValueError) as info:
            springer_report(((1,), (1,)), 1, primes=primes)
        assert str(info.value) == f"{primes[0]} is not prime"


def test_springer_report_counts_match_plain_enumeration():
    """The Z[q] fiber at every prime, p <= n included, against the DFS oracle."""
    primes = (2, 3, 5, 7)
    for n in range(4):
        for bmu in enumerate_bipartitions(n):
            m = size(bmu[0])
            rep = springer_report(bmu, m, primes=primes)
            for p, count in zip(primes, rep.counts):
                z = orbit_representative(bmu, p)
                plain = count_plain(z.x, z.v, m, p)
                assert count == plain, (bmu, p)


def test_springer_report_keeps_a_polynomial_above_its_degree(monkeypatch, capsys):
    """A fiber polynomial of degree d_mu + 1 is reported whole and fails the
    degree check; the springer command exits 1 instead of raising."""
    bmu = ((1, 1), (1, 1))
    d = fiber_dimension(bmu)
    too_high = (1,) * (d + 1) + (7,)
    fiber = flags._fiber_polynomial
    monkeypatch.setattr(
        flags,
        "_fiber_polynomial",
        lambda blocks, m, order=(): too_high if blocks == ((0, bmu),) else fiber(blocks, m, order),
    )
    rep = springer_report(bmu, 2)
    assert rep.polynomial == too_high
    assert rep.counts == tuple(evaluate(too_high, p) for p in rep.primes)
    assert not rep.degree_ok
    assert rep.to_json()["polynomial"] == [str(c) for c in too_high]
    assert main(["springer", "--mu", "[[1,1],[1,1]]"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["reports"][0]["polynomial"] == ["1", "1", "1", "7"]


def test_galois_examples():
    assert galois_degree_check(2, 2, PrimeField(5)) == (2, 2, True)
    assert galois_degree_check(2, 1, PrimeField(5)) == (1, 1, True)
    assert galois_degree_check(3, 1, PrimeField(5)) == (2, 2, True)
    with pytest.raises(ValueError):
        galois_degree_check(3, 1, PrimeField(3))


def test_galois_all_small():
    for n in (1, 2, 3, 4):
        p = 5 if n < 5 else 7
        for m in range(n + 1):
            count, expected, ok = galois_degree_check(n, m, PrimeField(p))
            assert ok and expected == factorial(m) * factorial(n - m)


def test_unipotent_elements_count():
    assert len(list(unitriangular_elements(range(3), 2))) == 8
    assert len(list(unitriangular_elements(range(2), 5))) == 5
    for u in unitriangular_elements(range(3), 2):
        assert u[0][0] == u[1][1] == u[2][2] == 1
        assert u[0][1] == u[0][2] == u[1][2] == 0
    pattern = list(unitriangular_elements(range(3), 3, free=[(2, 0)]))
    assert len(pattern) == 3
    assert {u[2][0] for u in pattern} == {0, 1, 2}
    assert all(u[1][0] == u[2][1] == 0 for u in pattern)
    with pytest.raises(ValueError):
        list(unitriangular_elements(range(3), 3, free=[(0, 2)]))


def build_slice_data(diag, unip, vtail, n, p):
    s = tuple(
        tuple(diag[i] % p if i == j else 0 for j in range(n)) for i in range(n)
    )
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in unip:
        u[i][j] = 1
    x = mat_mul(s, tuple(tuple(r) for r in u), p)
    v = tuple(vtail[i] if i < len(vtail) else 0 for i in range(n))
    return s, EnhancedPair(x, v, p)


def enumerated_slice_count(s, z0, m, p):
    """Independent oracle: classify every pair of sU x M_m against z0."""
    n = z0.n
    eigenvalues = [s[i][i] for i in range(n)]
    target = mixed_invariant(z0)
    count = 0
    for u in unitriangular_elements(range(n), p):
        classifier = MixedClassifier(mat_mul(s, u, p), p, eigenvalues=eigenvalues)
        for tail in all_vectors(m, p):
            if classifier.invariant(tail + (0,) * (n - m)) == target:
                count += 1
    return count


@pytest.mark.parametrize("n,p", [(n, p) for p in (3, 5) for n in (1, 2, 3)] + [(1, 7), (2, 7)])
def test_slice_count_matches_enumeration(n, p):
    for case in slice_cases(n):
        s, z = build_slice_data(case["diag"], case["unip"], case["vtail"], n, p)
        for m in range(len(case["vtail"]), n + 1):
            expected = enumerated_slice_count(s, z, m, p)
            assert slice_count(s, z, m, PrimeField(p)) == expected, (case["name"], m)


def test_slice_count_of_a_mixed_unipotent_pair_matches_enumeration():
    s, z = build_slice_data([1, 2, 2], [(2, 1)], [1], 3, 5)
    assert slice_count(s, z, 1, PrimeField(5)) == enumerated_slice_count(s, z, 1, 5)


def test_slice_count_identity_case():
    # the slice through (1, 0) at step 0 is the single point itself
    s, z = build_slice_data([1], [], [], 1, 3)
    assert slice_count(s, z, 0, PrimeField(3)) == 1


def test_slice_count_validations():
    p = 5
    s = ((1, 0), (0, 1))
    z = EnhancedPair(((1, 0), (0, 1)), (0, 1), p)
    with pytest.raises(ValueError):
        slice_count(s, z, 1, PrimeField(p))  # v outside the step span
    bad_s = ((0, 0), (0, 1))
    with pytest.raises(ValueError):
        slice_count(bad_s, z, 2, PrimeField(p))


def test_slice_cyclic_vector_case_at_stable_primes():
    """The cyclic-vector slice has count (p-1)^2, dimension (3 + 1)/2 = 2.

    At {3,5,7} the growth estimates disagree (the double (p-1) factor drags
    the small-prime slopes up), so the check runs at {5,7,11}.
    """
    counts = []
    for p in (5, 7, 11):
        s, z = build_slice_data([1, 1], [(1, 0)], [1], 2, p)
        counts.append((p, slice_count(s, z, 1, PrimeField(p))))
    assert [c for _, c in counts] == [(p - 1) ** 2 for p in (5, 7, 11)]
    assert slope_estimates(CountSeries.of(counts)) == [2, 2]


def test_slice_regular_unipotent_n2_at_stable_primes():
    counts = []
    for p in (5, 7, 11):
        s, z = build_slice_data([1, 1], [(1, 0)], [0, 1], 2, p)
        counts.append((p, slice_count(s, z, 2, PrimeField(p))))
    # orbit dimension 4, step 2: slice dimension 3
    assert slope_estimates(CountSeries.of(counts)) == [3, 3]


def test_slice_mixed_unipotent_n3_at_stable_primes():
    counts = []
    for p in (5, 7, 11):
        s, z = build_slice_data([1, 2, 2], [(2, 1)], [1], 3, p)
        counts.append((p, slice_count(s, z, 1, PrimeField(p))))
    # orbit dimension 7, step 1: slice dimension 4
    assert slope_estimates(CountSeries.of(counts)) == [4, 4]
