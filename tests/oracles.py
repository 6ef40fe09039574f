"""Slow oracles for enhanced pairs that no library path calls.

Each one checks a fast path of ``nilorbit.pairs`` from an independent
definition: stabilizers by enumeration of the solution space of the
stabilizer equations, vector classes by classifying every line, and orbit
equality through the invariant itself.
"""

from collections import Counter
from functools import lru_cache

from nilorbit.gfmat import (
    BudgetExceededError,
    Matrix,
    Subspace,
    all_vectors,
    apply,
    identity,
    jordan_matrix,
    rank,
    right_kernel,
    transpose,
)
from nilorbit.pairs import (
    EnhancedPair,
    _classify_nilpotent,
    _nilpotent_profile,
    commutant,
    mixed_invariant,
)
from nilorbit.partitions import Bipartition, Partition


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


def same_orbit(z1: EnhancedPair, z2: EnhancedPair) -> bool:
    if z1.p != z2.p or z1.n != z2.n:
        raise ValueError("pairs live on different spaces")
    return mixed_invariant(z1) == mixed_invariant(z2)


def stabilizer_group_order(z: EnhancedPair, budget: int = 50_000_000) -> int:
    """Order of {g invertible : gx = xg, v.g = v} by enumerating I + S0.

    S0 is the linear space {A in the commutant : v.A = 0}; the affine space
    I + S0 is exactly the solution set of the stabilizer equations, and its
    invertible points form the stabilizer group.  This is the slow oracle
    behind orbit_size; the budget bounds the p^dim(S0) points enumerated.
    """
    p, n = z.p, z.n
    basis = stabilizer_space(z)
    d = len(basis)
    if p**d > budget:
        raise BudgetExceededError(
            f"stabilizer enumeration at n={n}, p={p} needs {p**d} points, "
            f"budget is {budget}"
        )
    flat_basis = [[entry for row in b for entry in row] for b in basis]
    base = [entry for row in identity(n) for entry in row]
    count = 0
    for coeffs in all_vectors(d, p):
        flat = base
        for c, b in zip(coeffs, flat_basis):
            if c:
                flat = [(f + c * e) % p for f, e in zip(flat, b)]
        if rank(tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n)), p) == n:
            count += 1
    return count


@lru_cache(maxsize=None)
def vector_class_counts(lam: Partition, p: int) -> dict[Bipartition, int]:
    """{bipartition: number of v in GF(p)^n with (J_lam, v) in its class}.

    v and cv (c != 0) span the same Krylov space, so they share a class:
    the zero vector and one monic vector per line of GF(p)^n are classified
    against one profile of J_lam, each line weighted by its p - 1 nonzero
    vectors.  This is the oracle of pairs.class_polynomial.
    """
    x = jordan_matrix(lam, p)
    n = len(x)
    profile = _nilpotent_profile(x, p)
    counts = Counter({_classify_nilpotent(x, (0,) * n, p, profile): 1})
    for line in Subspace.full(n, p).lines():
        counts[_classify_nilpotent(x, line, p, profile)] += p - 1
    return dict(counts)
