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

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import gfmat
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
    """Canonical basis of {A : Ax = xA}, via the n^2 x n^2 commutation system."""
    n = len(x)
    if any(len(row) != n for row in x):
        raise ValueError("matrix must be square")
    if n == 0:
        return []
    system = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                row[i * n + k] = (row[i * n + k] + x[k][j]) % p
                row[k * n + j] = (row[k * n + j] - x[i][k]) % p
            system.append(tuple(row))
    kernel = right_kernel(tuple(system), p)
    return [
        tuple(flat[i * n : (i + 1) * n] for i in range(n)) for flat in kernel.basis
    ]


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

    On V/K with K = F[x]v, x^k has rank dim(im x^k + K) - dim K.
    """
    lam, images = profile
    krylov = tuple(krylov_basis(x, v, p))
    if not krylov:
        return ((), lam)
    k = len(krylov)
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


def stabilizer_space(z: EnhancedPair) -> list[Matrix]:
    """Basis of {A in the commutant of x : v.A = 0}."""
    basis = commutant(z.x, z.p)
    if not basis:
        return []
    images = tuple(apply(z.v, a, z.p) for a in basis)
    coeff_kernel = right_kernel(transpose(images), z.p)
    n, p = z.n, z.p
    out = []
    for coeffs in coeff_kernel.basis:
        rows = [[0] * n for _ in range(n)]
        for c, a in zip(coeffs, basis):
            if c:
                for i in range(n):
                    for j in range(n):
                        rows[i][j] = (rows[i][j] + c * a[i][j]) % p
        out.append(tuple(tuple(r) for r in rows))
    return out


def split_eigenspaces(
    x: Matrix, p: int, eigenvalues: Optional[Sequence[int]] = None
) -> list[tuple[int, Subspace, Matrix]]:
    """Generalized eigenspaces of a split matrix.

    Returns (eigenvalue, eigenspace, nilpotent part on the eigenspace in its
    canonical basis) sorted by eigenvalue.  Raises NonSplitError when the
    characteristic polynomial has roots outside GF(p).
    """
    n = len(x)
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


def same_orbit(z1: EnhancedPair, z2: EnhancedPair) -> bool:
    if z1.p != z2.p or z1.n != z2.n:
        raise ValueError("pairs live on different spaces")
    return mixed_invariant(z1) == mixed_invariant(z2)


def orbit_representative(bla: Bipartition, p: int) -> EnhancedPair:
    """Normal form of the orbit: Jordan matrix plus marked block vectors.

    x is the Jordan matrix of the componentwise sum; in each block i with
    first-component part h = first_i > 0 the vector picks up the basis
    vector at height h of that block.  The result is self-checked through
    classify.
    """
    bla = as_bipartition(bla)
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


def census(n: int, field: PrimeField, budget: int = 5_000_000) -> dict[Bipartition, int]:
    """Classify every pair (x nilpotent, v) over GF(p) by brute enumeration."""
    p = field.p
    if p ** (n * n) > budget:
        raise BudgetExceededError(
            f"census would scan {p**(n*n)} matrices, budget is {budget}"
        )
    table: dict[Bipartition, int] = {
        bla: 0 for bla in enumerate_bipartitions(n)
    }
    for x in gfmat.all_matrices(n, p):
        try:
            profile = _nilpotent_profile(x, p)
        except ValueError:
            continue
        for v in gfmat.all_vectors(n, p):
            table[_classify_nilpotent(x, v, p, profile)] += 1
    return table


def _det_mod(mats: np.ndarray, n: int, p: int) -> np.ndarray:
    """Vectorized determinant mod p of a (m, n, n) int array, n <= 4."""
    a = mats % p
    if n == 0:
        return np.ones(len(a), dtype=np.int64)
    if n == 1:
        return a[:, 0, 0] % p
    if n == 2:
        return (a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]) % p
    if n == 3:
        return (
            a[:, 0, 0] * (a[:, 1, 1] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 1])
            - a[:, 0, 1] * (a[:, 1, 0] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 0])
            + a[:, 0, 2] * (a[:, 1, 0] * a[:, 2, 1] - a[:, 1, 1] * a[:, 2, 0])
        ) % p
    if n == 4:
        det = np.zeros(len(a), dtype=np.int64)
        cols = [0, 1, 2, 3]
        for j in range(4):
            rest = [c for c in cols if c != j]
            minor = a[:, 1:, :][:, :, rest]
            m = (
                minor[:, 0, 0] * (minor[:, 1, 1] * minor[:, 2, 2] - minor[:, 1, 2] * minor[:, 2, 1])
                - minor[:, 0, 1] * (minor[:, 1, 0] * minor[:, 2, 2] - minor[:, 1, 2] * minor[:, 2, 0])
                + minor[:, 0, 2] * (minor[:, 1, 0] * minor[:, 2, 1] - minor[:, 1, 1] * minor[:, 2, 0])
            ) % p
            det = (det + (-1) ** j * a[:, 0, j] * m) % p
        return det % p
    raise ValueError("vectorized determinant implemented for n <= 4")


def stabilizer_group_order(z: EnhancedPair, budget: int = 50_000_000) -> int:
    """Order of {g invertible : gx = xg, v.g = v} by enumerating I + S0.

    S0 is the linear space {A in the commutant : v.A = 0}; the affine space
    I + S0 is exactly the solution set of the stabilizer equations, and its
    invertible points form the stabilizer group.  Enumeration is blockwise
    vectorized; the budget bounds p^dim(S0).
    """
    p, n = z.p, z.n
    basis = stabilizer_space(z)
    d = len(basis)
    if p**d > budget:
        raise BudgetExceededError(
            f"stabilizer enumeration needs {p**d} points, budget is {budget}"
        )
    if n > 4:
        count = 0
        for flat_coeffs in gfmat.all_vectors(d, p):
            rows = [
                [
                    (identity(n)[i][j] + sum(c * b[i][j] for c, b in zip(flat_coeffs, basis)))
                    % p
                    for j in range(n)
                ]
                for i in range(n)
            ]
            if rank(tuple(tuple(r) for r in rows), p) == n:
                count += 1
        return count
    flat_basis = np.array(
        [[b[i][j] for i in range(n) for j in range(n)] for b in basis], dtype=np.int64
    ).reshape(d, n * n)
    base = np.array(identity(n), dtype=np.int64).reshape(n * n)
    total_points = p**d
    block = 1 << 18
    count = 0
    for start in range(0, total_points, block):
        stop = min(start + block, total_points)
        idx = np.arange(start, stop, dtype=np.int64)
        coeffs = np.empty((stop - start, d), dtype=np.int64)
        for t in range(d):
            coeffs[:, t] = idx % p
            idx //= p
        if d:
            mats = (coeffs @ flat_basis + base) % p
        else:
            mats = np.broadcast_to(base, (stop - start, n * n)).copy()
        dets = _det_mod(mats.reshape(-1, n, n), n, p)
        count += int(np.count_nonzero(dets))
    return count


def orbit_size(bla: Bipartition, field: PrimeField, budget: int = 50_000_000) -> int:
    """Number of GF(p)-points of the orbit, |GL_n| / |stabilizer|."""
    bla = as_bipartition(bla)
    n = total(bla)
    z = orbit_representative(bla, field.p)
    stab = stabilizer_group_order(z, budget)
    group = gl_order(n, field.p)
    size, rem = divmod(group, stab)
    if rem:
        raise RuntimeError(
            f"orbit-stabilizer division is not exact: |GL|={group}, |Z|={stab}"
        )
    return size

