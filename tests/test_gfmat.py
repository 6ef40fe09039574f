"""Exact linear algebra over GF(p): canonical forms, Jordan types, maps."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from nilorbit.gfmat import (
    PrimeField,
    Subspace,
    all_matrices,
    all_vectors,
    apply,
    identity,
    jordan_matrix,
    mat_inv,
    mat_mul,
    partition_from_ranks,
    power_images,
    random_invertible,
    rank,
    right_kernel,
    rref,
    transpose,
    zeros,
)
from nilorbit.pairs import _nilpotent_profile
from nilorbit.partitions import enumerate_partitions
from oracles import induced_maps


def jordan_type(x, p):
    """The Jordan type of a nilpotent x, as the classifier computes it."""
    return _nilpotent_profile(x, p)[0]


def test_prime_field_validation():
    PrimeField(2)
    PrimeField(13)
    with pytest.raises(ValueError):
        PrimeField(9)
    with pytest.raises(ValueError):
        PrimeField(1)
    assert PrimeField(7).inv(3) == 5


def test_rref_examples():
    for a, rk in ((identity(3), 3), (zeros(2, 3), 0), (((1, 2), (2, 4)), 1)):
        assert rref(a, 5)[1] == rank(a, 5) == rk
        assert right_kernel(a, 5).dim == len(a[0]) - rk


@pytest.mark.parametrize("kernel", [right_kernel])
def test_kernels_reject_a_system_with_no_rows(kernel):
    # () could have any number of columns, so its kernel is not defined
    with pytest.raises(ValueError, match="no rows"):
        kernel((), 5)


def test_kernel_vectors_annihilate():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(25):
            rows = tuple(
                tuple(rng.randrange(p) for _ in range(4)) for _ in range(3)
            )
            rk, ker = rank(rows, p), right_kernel(rows, p)
            assert rk + ker.dim == 4
            for w in ker.basis:
                assert all(
                    sum(rows[i][j] * w[j] for j in range(4)) % p == 0
                    for i in range(3)
                )


@settings(max_examples=60)
@given(
    st.integers(0, 2).map(lambda i: (2, 3, 5)[i]),
    st.lists(st.lists(st.integers(0, 6), min_size=4, max_size=4), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)
def test_rref_canonical_under_respanning(p, rows, rnd):
    """Two spanning sets of the same row space give identical bases."""
    space = Subspace.from_vectors([tuple(r) for r in rows], 4, p)
    mixed = [list(b) for b in space.basis]
    for _ in range(4):
        if not mixed:
            break
        i = rnd.randrange(len(mixed))
        j = rnd.randrange(len(mixed))
        c = rnd.randrange(1, p)
        if i != j:
            mixed[i] = [(a + c * b) % p for a, b in zip(mixed[i], mixed[j])]
        else:
            mixed[i] = [(c * a) % p for a in mixed[i]]
    again = Subspace.from_vectors([tuple(r) for r in mixed] + list(space.basis), 4, p)
    assert again.basis == space.basis


def test_jordan_matrix_examples():
    assert jordan_matrix((2,), 3) == ((0, 0), (1, 0))
    assert jordan_matrix((1, 1), 5) == zeros(2, 2)
    assert jordan_type(jordan_matrix((2, 1), 5), 5) == (2, 1)


def test_jordan_block_action_lowers_index():
    x = jordan_matrix((3,), 7)
    e1, e2, e3 = identity(3)
    assert apply(e3, x, 7) == e2
    assert apply(e2, x, 7) == e1
    assert apply(e1, x, 7) == (0, 0, 0)


def test_jordan_type_examples():
    assert jordan_type(zeros(4, 4), 3) == (1, 1, 1, 1)
    assert jordan_type(jordan_matrix((4,), 3), 3) == (4,)
    assert jordan_type(jordan_matrix((2, 1), 2), 2) == (2, 1)
    with pytest.raises(ValueError):
        jordan_type(identity(2), 3)


def test_partition_from_ranks():
    assert partition_from_ranks([4, 2, 1, 0]) == (3, 1)
    assert partition_from_ranks([3, 0, 0]) == (1, 1, 1)
    assert partition_from_ranks([0]) == ()
    with pytest.raises(ValueError):
        partition_from_ranks([3, 1])


@pytest.mark.parametrize("n", range(9))
def test_jordan_roundtrip(n):
    for p in (2, 5):
        for nu in enumerate_partitions(n):
            assert jordan_type(jordan_matrix(nu, p), p) == nu


def test_jordan_type_conjugation_invariant():
    # 100 seeds spread over n <= 5, p in {2, 3, 5}
    seed = 0
    for p in (2, 3, 5):
        for n in range(1, 6):
            for nu in enumerate_partitions(n):
                x = jordan_matrix(nu, p)
                for _ in range(2):
                    g = random_invertible(n, p, seed)
                    seed += 1
                    conj = mat_mul(mat_mul(mat_inv(g, p), x, p), g, p)
                    assert jordan_type(conj, p) == nu
    assert seed >= 100


def test_induced_maps_examples():
    p = 5
    x = jordan_matrix((2,), p)
    w = Subspace.from_vectors([(1, 0)], 2, p)
    restriction, quotient = induced_maps(x, w, p)
    assert restriction == ((0,),)
    assert quotient == ((0,),)
    full = Subspace.full(2, p)
    restriction, quotient = induced_maps(x, full, p)
    assert restriction == x and quotient == ()
    zero = Subspace.zero(2, p)
    restriction, quotient = induced_maps(x, zero, p)
    assert restriction == () and quotient == x


def test_induced_maps_rejects_unstable():
    p = 3
    x = jordan_matrix((2,), p)
    w = Subspace.from_vectors([(0, 1)], 2, p)
    with pytest.raises(ValueError):
        induced_maps(x, w, p)


def test_quotient_coordinates_are_nonpivot_columns():
    p = 5
    x = jordan_matrix((3,), p)
    w = Subspace.from_vectors([(1, 0, 0), (0, 1, 0)], 3, p)
    _, quotient = induced_maps(x, w, p)
    # e3 maps to e2 which dies in the quotient
    assert quotient == ((0,),)


def test_random_invertible():
    assert random_invertible(1, 5, 3)[0][0] != 0
    g = random_invertible(3, 5, 7)
    assert rank(g, 5) == 3
    assert random_invertible(3, 5, 7) == g  # determinism
    assert random_invertible(3, 5, 8) != g or True  # distinct seeds may differ
    assert rank(random_invertible(3, 5, 8), 5) == 3


def digit_loop_vectors(n, p):
    """GF(p)^n by a digit loop over 0..p^n - 1, first coordinate fastest."""
    for idx in range(p**n):
        v = []
        k = idx
        for _ in range(n):
            v.append(k % p)
            k //= p
        yield tuple(v)


def test_all_vectors_order_matches_digit_loop():
    assert list(all_vectors(0, 3)) == [()]
    for p in (2, 3, 5):
        for n in range(5):
            assert list(all_vectors(n, p)) == list(digit_loop_vectors(n, p)), (n, p)


def test_subspace_membership_and_coords():
    p = 7
    s = Subspace.from_vectors([(1, 2, 3), (0, 1, 4)], 3, p)
    b1, b2 = s.basis
    v = tuple((2 * a + 5 * b) % p for a, b in zip(b1, b2))
    assert s.contains(v)
    assert s.coords(v) == (2, 5)
    assert not s.contains((0, 0, 1))
    with pytest.raises(ValueError):
        s.coords((0, 0, 1))


def test_subspace_lines_cover_projective_space():
    p = 3
    s = Subspace.full(2, p)
    lines = list(s.lines())
    assert len(lines) == p + 1
    assert len({tuple(sorted({tuple((c * x) % p for x in l) for c in range(1, p)}))
                for l in lines}) == p + 1


def test_transpose_and_inverse():
    p = 7
    g = random_invertible(4, p, 2)
    assert mat_mul(g, mat_inv(g, p), p) == identity(4)
    assert transpose(transpose(g)) == g
    r, rk, _ = rref(g, p)
    assert rk == 4 and r == identity(4)


def naive_mat_mul(a, b, p):
    """Triple-loop oracle; the column count is read from b's first row."""
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) % p for j in range(cols))
        for i in range(len(a))
    )


def naive_apply(v, a, p):
    cols = len(a[0]) if a else 0
    return tuple(sum(v[i] * a[i][j] for i in range(len(a))) % p for j in range(cols))


def random_entries(rows, cols, p, rng):
    """Entries from -2p to 3p, so negative and unreduced values occur."""
    return tuple(tuple(rng.randrange(-2 * p, 3 * p) for _ in range(cols)) for _ in range(rows))


def test_mat_mul_and_apply_match_naive_products():
    rng = random.Random(14)
    shapes = [(m, k, c) for m in range(1, 6) for k in range(1, 6) for c in range(1, 6)]
    for p in (2, 3, 5, 7):
        for m, k, c in shapes:
            a = random_entries(m, k, p, rng)
            b = random_entries(k, c, p, rng)
            product = mat_mul(a, b, p)
            assert product == naive_mat_mul(a, b, p), (p, a, b)
            assert all(0 <= x < p for row in product for x in row)
            for row in a:
                image = apply(row, b, p)
                assert image == naive_apply(row, b, p), (p, row, b)
                assert all(0 <= x < p for x in image)
    # empty matrices: no rows, or rows of length 0
    for p in (2, 3, 5, 7):
        b = random_entries(3, 2, p, rng)
        assert mat_mul((), b, p) == naive_mat_mul((), b, p) == ()
        assert mat_mul(((),) * 2, (), p) == naive_mat_mul(((),) * 2, (), p) == ((), ())
        assert mat_mul(b, ((),) * 2, p) == naive_mat_mul(b, ((),) * 2, p) == ((),) * 3
        assert apply((), (), p) == naive_apply((), (), p) == ()
        assert apply((1, 2, 3), ((),) * 3, p) == naive_apply((1, 2, 3), ((),) * 3, p) == ()


def gauss_jordan(rows, ncols, p):
    """Textbook Gauss-Jordan oracle: (reduced echelon rows, pivot columns).

    Each step takes the first row at or below the next pivot position with a
    nonzero entry in the column, scales it by the inverse of that entry and
    subtracts multiples of it from every other row, with no shortcuts.
    """
    m = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        below = [i for i in range(r, len(m)) if m[i][c] % p != 0]
        if not below:
            continue
        m[r], m[below[0]] = m[below[0]], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(inv * x) % p for x in m[r]]
        m = [
            row if i == r else [(x - row[c] * y) % p for x, y in zip(row, m[r])]
            for i, row in enumerate(m)
        ]
        pivots.append(c)
    return m, pivots


def gauss_jordan_kernel(rows, ncols, p):
    """Basis of {w : A w = 0}, one vector per free column of the oracle's RREF."""
    reduced, pivots = gauss_jordan(rows, ncols, p)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        w = [0] * ncols
        w[free] = 1
        for row, c in zip(reduced, pivots):
            w[c] = -row[free] % p
        basis.append(w)
    return basis


def is_reduced(rows, p):
    return all(0 <= x < p for row in rows for x in row)


def test_row_reduction_matches_gauss_jordan_oracle():
    """rref, rank, kernels, canonical subspaces and inverses against the oracle,
    on unreduced entries in [-2p, 3p)."""
    rng = random.Random(16)
    inverses = 0
    for p in (2, 3, 5, 7, 11):
        for nrows in range(7):
            for ncols in range(1, 8):
                for _ in range(3):
                    a = random_entries(nrows, ncols, p, rng)
                    expected, pivots = gauss_jordan(a, ncols, p)
                    expected = tuple(tuple(row) for row in expected)
                    reduced, rk, got_pivots = rref(a, p)
                    assert (reduced, rk, got_pivots) == (expected, len(pivots), pivots), (p, a)
                    assert is_reduced(reduced, p)
                    assert rank(a, p) == len(pivots)

                    space = Subspace.from_vectors(a, ncols, p)
                    assert space.basis == expected[: len(pivots)]
                    assert space.pivots == tuple(pivots)
                    assert is_reduced(space.basis, p)

                    if nrows:
                        kernel = right_kernel(a, p)
                        oracle = gauss_jordan(gauss_jordan_kernel(a, ncols, p), ncols, p)[0]
                        assert kernel.basis == tuple(
                            tuple(row) for row in oracle if any(row)
                        ), (p, a)
                        assert is_reduced(kernel.basis, p)

                    if nrows == ncols and len(pivots) == nrows:
                        inverses += 1
                        aug = [tuple(ra) + tuple(ri) for ra, ri in zip(a, identity(nrows))]
                        oracle = gauss_jordan(aug, 2 * nrows, p)[0]
                        inv = mat_inv(a, p)
                        assert inv == tuple(tuple(row[nrows:]) for row in oracle), (p, a)
                        assert is_reduced(inv, p)
                        assert mat_mul(a, inv, p) == identity(nrows)
                    elif nrows == ncols and nrows:
                        with pytest.raises(ZeroDivisionError):
                            mat_inv(a, p)
    assert inverses > 50


def power_images_by_identity(x, p):
    """The row spaces of the powers of x, starting from x applied to identity rows."""
    n = len(x)
    spaces = [Subspace.from_vectors(identity(n), n, p)]
    while spaces[-1].dim:
        image = Subspace.from_vectors([apply(b, x, p) for b in spaces[-1].basis], n, p)
        if image.dim == spaces[-1].dim:
            raise ValueError("matrix is not nilpotent")
        spaces.append(image)
    return spaces


def test_power_images_match_identity_definition_on_all_3x3_over_f2():
    nilpotent = 0
    for x in all_matrices(3, 2):
        try:
            expected = power_images_by_identity(x, 2)
        except ValueError:
            with pytest.raises(ValueError, match="^matrix is not nilpotent$"):
                power_images(x, 2)
            continue
        assert power_images(x, 2) == expected, x
        nilpotent += 1
    assert nilpotent == 2 ** (3 * 3 - 3)  # Fine-Herstein
    assert power_images((), 5) == [Subspace(0, 5, (), ())]
    assert Subspace.full(3, 5) is Subspace.full(3, 5)
    assert Subspace.full(3, 5) == Subspace.from_vectors(identity(3), 3, 5)
