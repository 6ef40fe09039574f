"""Partitions, bipartitions, their statistics and orders.

A partition is a tuple of weakly decreasing positive integers; the empty
partition is ``()``.  A bipartition is a pair ``(first, second)`` of
partitions; the bipartitions of total size n index the GL_n-orbits of the
enhanced nilpotent cone, with ``first`` recording the Jordan type on the
subspace generated by the vector under the commutant and ``second`` the
Jordan type on the quotient.
"""

from __future__ import annotations

from functools import reduce
from math import factorial
from operator import mul
from typing import Iterator, Optional, Sequence

Partition = tuple[int, ...]
Bipartition = tuple[Partition, Partition]


def as_partition(parts: Sequence[int]) -> Partition:
    """Validate and freeze a partition given as any integer sequence."""
    t = tuple(int(x) for x in parts)
    for i, x in enumerate(t):
        if x < 1:
            raise ValueError(f"partition parts must be positive, got {t}")
        if i > 0 and t[i - 1] < x:
            raise ValueError(f"partition parts must be weakly decreasing, got {t}")
    return t


def as_bipartition(pair: Sequence[Sequence[int]]) -> Bipartition:
    if len(pair) != 2:
        raise ValueError(f"bipartition needs exactly two components, got {pair!r}")
    return (as_partition(pair[0]), as_partition(pair[1]))


def size(la: Partition) -> int:
    return sum(la)


def total(bla: Bipartition) -> int:
    return sum(bla[0]) + sum(bla[1])


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, reverse-lexicographically ((n) first, (1^n) last)."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def descend(remaining: int, cap: int, prefix: tuple[int, ...]) -> Iterator[Partition]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from descend(remaining - part, part, prefix + (part,))

    yield from descend(n, n, ())


def partition_count(n: int) -> int:
    return sum(1 for _ in enumerate_partitions(n))


def revlex_key(la: Partition) -> tuple[int, ...]:
    """Sort key realizing the enumeration order of enumerate_partitions."""
    return tuple(-x for x in la)


def conjugate(la: Partition) -> Partition:
    if not la:
        return ()
    return tuple(sum(1 for x in la if x > i) for i in range(la[0]))


def n_stat(la: Partition) -> int:
    """The weighted row statistic sum((i-1) * la_i), rows numbered from 1."""
    return sum(i * x for i, x in enumerate(la))


def dominance_leq(mu: Partition, la: Partition) -> bool:
    """Dominance order: every partial sum of mu is at most that of la."""
    if sum(mu) != sum(la):
        raise ValueError(f"dominance compares equal sizes, got {mu} vs {la}")
    acc_mu = acc_la = 0
    for i in range(max(len(mu), len(la))):
        acc_mu += mu[i] if i < len(mu) else 0
        acc_la += la[i] if i < len(la) else 0
        if acc_mu > acc_la:
            return False
    return True


def hook_lengths(la: Partition) -> list[list[int]]:
    conj = conjugate(la)
    return [[la[i] - j + conj[j] - i - 1 for j in range(la[i])] for i in range(len(la))]


def syt_count(la: Partition) -> int:
    """Number of standard Young tableaux of shape la (hook length formula).

    Equals the dimension of the irreducible S_{|la|}-module indexed by la.
    """
    hooks = reduce(mul, (h for row in hook_lengths(la) for h in row), 1)
    count, rem = divmod(factorial(size(la)), hooks)
    assert rem == 0
    return count


def enumerate_bipartitions(n: int, m: Optional[int] = None) -> Iterator[Bipartition]:
    """All bipartitions of n (optionally with |first| = m), in canonical order.

    The canonical order runs |first| from n down to 0, then each component
    reverse-lexicographically.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if m is not None:
        if not 0 <= m <= n:
            raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
        sizes = [m]
    else:
        sizes = list(range(n, -1, -1))
    for k in sizes:
        for first in enumerate_partitions(k):
            for second in enumerate_partitions(n - k):
                yield (first, second)


def bipartition_key(bla: Bipartition) -> tuple:
    """Sort key realizing the order of enumerate_bipartitions."""
    return (-size(bla[0]), revlex_key(bla[0]), revlex_key(bla[1]))


def a_stat(bla: Bipartition) -> int:
    """Stabilizer dimension of a point in the orbit indexed by bla."""
    first, second = bla
    return 2 * (n_stat(first) + n_stat(second)) + size(second)


def m_stat(bla: Bipartition) -> int:
    return size(bla[0])


def orbit_dim(bla: Bipartition, n: int) -> int:
    """Dimension of the enhanced orbit indexed by bla inside End(V) x V."""
    if total(bla) != n:
        raise ValueError(f"bipartition {bla} has total {total(bla)}, expected {n}")
    return n * n - a_stat(bla)


def partition_sum(la: Partition, mu: Partition) -> Partition:
    """Componentwise sum; this is the Jordan type underlying a bipartition."""
    k = max(len(la), len(mu))
    return tuple(
        (la[i] if i < len(la) else 0) + (mu[i] if i < len(mu) else 0) for i in range(k)
    )


def ah_leq(bmu: Bipartition, bla: Bipartition) -> bool:
    """Closure order on bipartitions via the two families of partial sums.

    bmu <= bla iff for every k >= 0 both
      sum_{i<=k} (mu1_i + mu2_i) <= sum_{i<=k} (la1_i + la2_i)   and
      the same with mu1_{k+1} resp. la1_{k+1} added on each side.
    """
    if total(bmu) != total(bla):
        raise ValueError(f"totals differ: {bmu} vs {bla}")
    mu1, mu2 = bmu
    la1, la2 = bla
    depth = max(len(mu1), len(mu2), len(la1), len(la2)) + 1

    def at(p: Partition, i: int) -> int:
        return p[i] if i < len(p) else 0

    acc_mu = acc_la = 0
    for k in range(depth + 1):
        if acc_mu > acc_la:
            return False
        if acc_mu + at(mu1, k) > acc_la + at(la1, k):
            return False
        acc_mu += at(mu1, k) + at(mu2, k)
        acc_la += at(la1, k) + at(la2, k)
    return True


def hasse_relations(n: int) -> list[tuple[Bipartition, Bipartition]]:
    """Covering pairs (lower, upper) of the closure order on bipartitions of n."""
    elems = list(enumerate_bipartitions(n))
    below = {
        up: [lo for lo in elems if lo != up and ah_leq(lo, up)] for up in elems
    }
    covers = []
    for up in elems:
        for lo in below[up]:
            if not any(ah_leq(lo, mid) and mid != lo for mid in below[up]):
                covers.append((lo, up))
    return sorted(covers, key=lambda c: (bipartition_key(c[1]), bipartition_key(c[0])))


def irr_dim(bmu: Bipartition) -> int:
    """Dimension of the irreducible S_m x S_{n-m} module indexed by bmu."""
    return syt_count(bmu[0]) * syt_count(bmu[1])


def bipartition_to_json(bla: Bipartition) -> list[list[int]]:
    return [list(bla[0]), list(bla[1])]
