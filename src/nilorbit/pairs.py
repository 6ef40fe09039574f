"""Orbits of pairs (x, v) with x an endomorphism over GF(p) and v a vector.

For nilpotent x the GL_n-orbit of (x, v) is classified by a bipartition
(mu, nu): the Jordan types of x on the subspace C(x)v swept out by the
commutant of x, and on the quotient by it.  The bipartition is read off
two Jordan types alone, lambda of x and rho of x on V/F[x]v, where
F[x]v = span(v, vx, vx^2, ...) is the Krylov span: mu_i = sum over j >= i
of (lambda_j - rho_j), and nu = lambda - mu.  For general split x the orbit
is classified blockwise on generalized eigenspaces, one bipartition per
eigenvalue.  Everything here is exact arithmetic mod p.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from . import gfmat
from .counting import degree, evaluate, poly_mul
from .gfmat import (
    BudgetExceededError,
    Matrix,
    PrimeField,
    Subspace,
    Vector,
    apply,
    gl_order,
    identity,
    jordan_matrix,
    mat_inv,
    mat_pow,
    mat_sub,
    partition_from_ranks,
    power_images,
    rank,
    right_kernel,
    scal_mul,
    transpose,
)
from .partitions import (
    Bipartition,
    Partition,
    as_bipartition,
    as_partition,
    conjugate,
    enumerate_bipartitions,
    m_stat,
    partition_sum,
    total,
)


class NonSplitError(ValueError):
    """The characteristic polynomial does not split over the prime field."""


@dataclass(frozen=True)
class EnhancedPair:
    x: Matrix
    v: Vector
    p: int

    def __post_init__(self):
        PrimeField(self.p)
        n = len(self.x)
        if any(len(row) != n for row in self.x) or len(self.v) != n:
            raise ValueError("dimension mismatch between matrix and vector")

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class MixedInvariant:
    """Eigenvalue-indexed bipartitions classifying the orbit of a split pair."""

    blocks: tuple[tuple[int, Bipartition], ...]

    @property
    def mu(self) -> int:
        return sum(m_stat(bla) for _, bla in self.blocks)

    @property
    def total(self) -> int:
        return sum(total(bla) for _, bla in self.blocks)


def commutant(x: Matrix, p: int) -> list[Matrix]:
    """Canonical basis of {A : Ax = xA}, via the n^2 x n^2 commutation system.

    The basis is built once per (x, p) while it stays among the last
    COMMUTANT_CACHE_SIZE matrices asked for; every call returns a fresh list.
    """
    return list(_commutant_basis(x, p))


# Commutant bases kept per process.  The library asks only for Jordan
# matrices J_lam, a few dozen of them per run; the bound keeps a caller that
# passes many distinct matrices from holding every basis.
COMMUTANT_CACHE_SIZE = 256


@lru_cache(maxsize=COMMUTANT_CACHE_SIZE)
def _commutant_basis(x: Matrix, p: int) -> tuple[Matrix, ...]:
    """The basis behind commutant(x, p), as a tuple the cache can share."""
    n = len(x)
    if any(len(row) != n for row in x):
        raise ValueError("matrix must be square")
    if n == 0:
        return ()
    system = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                row[i * n + k] = (row[i * n + k] + x[k][j]) % p
                row[k * n + j] = (row[k * n + j] - x[i][k]) % p
            system.append(tuple(row))
    kernel = right_kernel(tuple(system), p)
    return tuple(
        tuple(flat[i * n : (i + 1) * n] for i in range(n)) for flat in kernel.basis
    )


def krylov_basis(x: Matrix, v: Vector, p: int) -> list[Vector]:
    """The nonzero vectors v, vx, vx^2, ... for nilpotent x.

    They are linearly independent, so they are a basis of the Krylov span
    F[x]v.
    """
    out = []
    for _ in range(len(x)):
        if not any(v):
            break
        out.append(v)
        v = apply(v, x, p)
    return out


def bipartition_from_types(lam: Partition, rho: Partition) -> Bipartition:
    """Bipartition of a nilpotent pair from lambda = type(x), rho = type(x on V/F[x]v).

    mu_i = sum over j >= i of (lambda_j - rho_j) and nu = lambda - mu.
    Raises ValueError when mu or nu is not a partition, that is when no
    pair has these two types.
    """
    if len(rho) > len(lam):
        raise ValueError(f"quotient type {rho} is longer than the type {lam}")
    padded = rho + (0,) * (len(lam) - len(rho))
    mu = []
    acc = 0
    for la, rh in zip(reversed(lam), reversed(padded)):
        acc += la - rh
        mu.append(acc)
    mu.reverse()
    nu = [la - m for la, m in zip(lam, mu)]
    for parts in (mu, nu):
        if any(a < b for a, b in zip(parts, parts[1:])) or (parts and parts[-1] < 0):
            raise ValueError(f"types {lam} and {rho} belong to no nilpotent pair")
    return (tuple(m for m in mu if m), tuple(a for a in nu if a))


def _nilpotent_profile(x: Matrix, p: int) -> tuple[Partition, list[Subspace]]:
    """Jordan type of x and the row spaces of its powers; raises unless nilpotent."""
    images = power_images(x, p)
    return partition_from_ranks([space.dim for space in images]), images


def _classify_nilpotent(
    x: Matrix, v: Vector, p: int, profile: tuple[Partition, list[Subspace]]
) -> Bipartition:
    """Bipartition of (x, v) given the profile of x from _nilpotent_profile.

    On V/K with K = F[x]v, x^k has rank dim(im x^k + K) - dim K.  A cyclic
    v (K = V, so lam = (n)) needs no rank: the quotient is 0.
    """
    lam, images = profile
    krylov = tuple(krylov_basis(x, v, p))
    if not krylov:
        return ((), lam)
    k = len(krylov)
    if k == len(x):
        return (lam, ())
    ranks = [len(x) - k]
    ranks += [rank(space.basis + krylov, p) - k for space in images[1:-1]]
    ranks.append(0)
    return bipartition_from_types(lam, partition_from_ranks(ranks))


def classify(z: EnhancedPair) -> Bipartition:
    """Bipartition indexing the orbit of a nilpotent pair."""
    return _classify_nilpotent(z.x, z.v, z.p, _nilpotent_profile(z.x, z.p))


def stab_dim(z: EnhancedPair) -> int:
    """Dimension of {A in the commutant of x : v.A = 0}."""
    basis = commutant(z.x, z.p)
    if not basis:
        return 0
    images = tuple(apply(z.v, a, z.p) for a in basis)
    return len(basis) - rank(images, z.p)


def split_eigenspaces(
    x: Matrix, p: int, eigenvalues: Optional[Sequence[int]] = None
) -> list[tuple[int, Subspace, Matrix]]:
    """Generalized eigenspaces of a split matrix.

    Returns (eigenvalue, eigenspace, nilpotent part on the eigenspace in its
    canonical basis) sorted by eigenvalue.  Raises NonSplitError when the
    characteristic polynomial has roots outside GF(p).
    """
    n = len(x)
    if n == 0:
        return []
    out = []
    found = 0
    candidates = range(p) if eigenvalues is None else sorted(set(eigenvalues))
    for a in candidates:
        shifted = mat_sub(x, scal_mul(a, identity(n), p), p)
        power = mat_pow(shifted, n, p)
        space = right_kernel(transpose(power), p)
        if space.dim == 0:
            continue
        restriction = tuple(space.coords(apply(b, x, p)) for b in space.basis)
        nil = mat_sub(restriction, scal_mul(a, identity(space.dim), p), p)
        out.append((a, space, nil))
        found += space.dim
        if found == n:
            break
    if found != n:
        raise NonSplitError(
            f"matrix has eigenvalues outside GF({p}); generalized eigenspaces "
            f"cover {found} of {n} dimensions"
        )
    return out


class MixedClassifier:
    """Classifies many vectors against one fixed split matrix.

    Caches the eigenspace decomposition and, per block, the Jordan type of
    the nilpotent part and the row spaces of its powers, so that the
    per-vector work is a coordinate change plus one Krylov span per block.
    """

    def __init__(self, x: Matrix, p: int, eigenvalues: Optional[Sequence[int]] = None):
        self.p = p
        self.n = len(x)
        self.blocks = split_eigenspaces(x, p, eigenvalues)
        stacked = tuple(b for _, space, _ in self.blocks for b in space.basis)
        self.basis_inv = mat_inv(stacked, p)
        self.profiles = [_nilpotent_profile(nil, p) for _, _, nil in self.blocks]

    def invariant(self, v: Vector) -> MixedInvariant:
        coords = apply(v, self.basis_inv, self.p)
        out = []
        offset = 0
        for (a, space, nil), profile in zip(self.blocks, self.profiles):
            block_v = coords[offset : offset + space.dim]
            offset += space.dim
            out.append((a, _classify_nilpotent(nil, block_v, self.p, profile)))
        return MixedInvariant(tuple(out))


def mixed_invariant(z: EnhancedPair) -> MixedInvariant:
    """Eigenvalue-indexed bipartitions of a split pair (x, v)."""
    return MixedClassifier(z.x, z.p).invariant(z.v)


def orbit_representative(bla: Bipartition, p: int) -> EnhancedPair:
    """Normal form of the orbit: Jordan matrix plus marked block vectors.

    x is the Jordan matrix of the componentwise sum; in each block i with
    first-component part h = first_i > 0 the vector picks up the basis
    vector at height h of that block.  The result is self-checked through
    classify, once per (bla, p): the pair is frozen, so the cache shares it.
    """
    return _normal_form(as_bipartition(bla), p)


@lru_cache(maxsize=None)
def _normal_form(bla: Bipartition, p: int) -> EnhancedPair:
    first, second = bla
    nu = partition_sum(first, second)
    n = sum(nu)
    x = jordan_matrix(nu, p)
    v = [0] * n
    offset = 0
    for i, part in enumerate(nu):
        if i < len(first) and first[i] > 0:
            v[offset + first[i] - 1] = 1
        offset += part
    z = EnhancedPair(x, tuple(v), p)
    got = classify(z)
    if got != bla:
        raise RuntimeError(
            f"normal form self-check failed: classify gave {got}, expected {bla}"
        )
    return z


def census(n: int, field: PrimeField, budget: int = 5_000_000) -> Mapping[Bipartition, int]:
    """Classify every pair (x nilpotent, v) over GF(p) by brute enumeration.

    The table is cached per (n, p) and read-only; the budget bounds the
    p^(n^2) matrices scanned and is checked before the cache is read.
    """
    p = field.p
    if p ** (n * n) > budget:
        raise BudgetExceededError(
            f"census would scan {p**(n*n)} matrices, budget is {budget}"
        )
    return _census_table(n, p)


@lru_cache(maxsize=None)
def _census_table(n: int, p: int) -> Mapping[Bipartition, int]:
    """The table of census(n, GF(p)).  A nilpotent matrix has trace 0, so a
    matrix with nonzero trace is skipped before its profile is computed."""
    table: dict[Bipartition, int] = {
        bla: 0 for bla in enumerate_bipartitions(n)
    }
    for x in gfmat.all_matrices(n, p):
        if sum(x[i][i] for i in range(n)) % p:
            continue
        try:
            profile = _nilpotent_profile(x, p)
        except ValueError:
            continue
        for v in gfmat.all_vectors(n, p):
            table[_classify_nilpotent(x, v, p, profile)] += 1
    return MappingProxyType(table)


def centralizer_order(lam: Partition, p: int) -> int:
    """Order of the centralizer of the Jordan matrix J_lam in GL_n(GF(p)).

    It is p^(sum lam'_i^2 - sum m_i^2) times the product of |GL_{m_i}|, with
    lam' the conjugate partition and m_i the number of parts of lam equal to
    i (Macdonald, Symmetric Functions and Hall Polynomials, Ch. II).
    """
    lam = as_partition(lam)
    mults = Counter(lam).values()
    exponent = sum(c * c for c in conjugate(lam)) - sum(m * m for m in mults)
    return p**exponent * math.prod(gl_order(m, p) for m in mults)


def _class_spans(lam: Partition) -> dict[Bipartition, tuple[int, frozenset]]:
    """{beta: (dim W_beta, the classes gamma != beta below beta)} over J_lam.

    W_beta = C(x)v_beta is the span of the normal-form vector under the
    commutant, and gamma lies below beta when v_gamma is in W_beta.  In the
    normal form (Achar-Henderson, Orbit closures in the enhanced nilpotent
    cone, Adv. Math. 219 (2008), sec. 2-3), v_beta is the sum of the
    height-mu_i vectors of the blocks i, lam = mu + nu.  A module map from
    block i to block j sends its height-mu_i vector to any vector of height
    at most min(mu_i, lam_j - nu_i), and C(x) holds the projections onto the
    blocks, so W_beta is spanned by the vectors of height at most H_j in
    each block j, with H_j = max(0, max over mu_i > 0 of min(mu_i, lam_j -
    nu_i)).  So dim W_beta = sum of the H_j, and gamma lies below beta
    exactly when mu^gamma_j <= H_j for every j.
    """
    heights = {}
    for bla in enumerate_bipartitions(sum(lam)):
        if partition_sum(*bla) == lam:
            mu, nu = bla
            nu = nu + (0,) * (len(mu) - len(nu))
            heights[bla] = tuple(
                max([0] + [min(m_i, la - n_i) for m_i, n_i in zip(mu, nu)]) for la in lam
            )
    return {
        bla: (
            sum(top),
            frozenset(
                g for g in heights if g != bla and all(m <= h for m, h in zip(g[0], top))
            ),
        )
        for bla, top in heights.items()
    }


@lru_cache(maxsize=None)
def _class_polynomials(lam: Partition) -> Mapping[Bipartition, tuple[int, ...]]:
    """{beta: c_beta in Z[q]} over the classes beta with partition_sum(*beta) == lam.

    c_beta(q) is the number of v in GF(q)^n with (J_lam, v) in the class of
    beta.  For g in Z(J_lam), C(x)gv = C(x)v, so W_beta is the same for every
    vector of the class, and W_beta is the union of the classes below beta.
    So the sum of c_gamma over gamma <= beta is q^dim W_beta, which Moebius
    inversion solves from the smallest spans up:
    c_beta = sum over gamma <= beta of mu(gamma, beta) q^dim W_gamma.  The
    spans and the order come from `_class_spans`.  The mapping is read-only
    because the cache hands it to every caller.
    """
    spans = _class_spans(lam)
    out: dict[Bipartition, tuple[int, ...]] = {}
    for bla, (dim, below) in sorted(spans.items(), key=lambda item: item[1][0]):
        if any(spans[g][0] == dim for g in below):
            raise RuntimeError(f"two classes over J_{lam} share the span of {bla}")
        poly = [0] * dim + [1]
        for g in below:
            poly_mul(out[g], (-1,), poly)  # poly -= c_gamma
        out[bla] = tuple(poly)
    return MappingProxyType(out)


def class_polynomial(bla: Bipartition) -> tuple[int, ...]:
    """c_beta in Z[q], ascending: the number of v with (J_lam, v) in the class
    of beta = (mu, nu), lam = mu + nu, as a polynomial in the field size q."""
    bla = as_bipartition(bla)
    return _class_polynomials(partition_sum(*bla))[bla]


def orbit_size(bla: Bipartition, field: PrimeField) -> int:
    """Number of GF(p)-points of the orbit of the bipartition (mu, nu).

    The one-block case of mixed_orbit_size: the size is |GL_n| / |Z(J_lam)|
    times class_polynomial(bla) at p, with lam = mu + nu.
    """
    return mixed_orbit_size(MixedInvariant(((0, as_bipartition(bla)),)), field)


def mixed_orbit_size(inv: MixedInvariant, field: PrimeField) -> int:
    """Number of GF(p)-points of the orbit of a split pair with invariant inv.

    The orbit maps onto the conjugacy class of x, whose centralizer is the
    product of the centralizers of the nilpotent parts J_lam_a of its blocks,
    lam_a = mu_a + nu_a.  The fiber over x is the set of v whose component
    in each generalized eigenspace lies in the class of beta_a, and those
    number class_polynomial(beta_a) at p, so

        |O| = |GL_n| prod c_beta_a(p) / prod |Z(J_lam_a)|.

    An inexact division raises RuntimeError.
    """
    p = field.p
    numerator, denominator = gl_order(inv.total, p), 1
    for _, bla in inv.blocks:
        lam = partition_sum(*bla)
        numerator *= evaluate(_class_polynomials(lam)[bla], p)
        denominator *= centralizer_order(lam, p)
    size, rem = divmod(numerator, denominator)
    if rem:
        raise RuntimeError(f"orbit-size division is not exact: {numerator} / {denominator}")
    return size


def mixed_orbit_degree(inv: MixedInvariant) -> int:
    """Degree in p of mixed_orbit_size(inv, GF(p)), factor by factor:
    |GL_n| has degree n^2, |Z(J_lam)| degree sum lam'_i^2 and c_beta
    degree deg c_beta."""
    out = inv.total**2
    for _, bla in inv.blocks:
        lam = partition_sum(*bla)
        out += degree(_class_polynomials(lam)[bla]) - sum(c * c for c in conjugate(lam))
    return out
