"""Point counts of fixed-vector flag varieties over GF(p).

The central object is the fiber over a pair (x, v): complete flags
0 < V_1 < ... < V_n stabilized by x step by step, with v required to lie
in the m-th step.  Counts are exact; interpolation across primes recovers
the count polynomial, whose degree and leading coefficient are the
quantities the verification suites check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .counting import (
    CountPolynomial,
    CountSeries,
    first_primes,
    gaussian_factorial,
    interpolate,
)
from .gfmat import (
    BudgetExceededError,
    Matrix,
    PrimeField,
    Subspace,
    Vector,
    apply,
    identity,
    induced_maps,
    mat_mul,
    mat_sub,
    partition_from_ranks,
    power_images,
    rank,
    right_kernel,
    scal_mul,
    transpose,
)
from . import gfmat
from .pairs import (
    EnhancedPair,
    MixedClassifier,
    NonSplitError,
    bipartition_from_types,
    krylov_basis,
    mixed_orbit_size,
    orbit_representative,
)
from .partitions import (
    Bipartition,
    as_bipartition,
    bipartition_to_json,
    irr_dim,
    orbit_dim,
    size,
    total,
)


_FIBER_BUDGET = 2_000_000


@dataclass(frozen=True)
class FlagCondition:
    """x-stable complete flags with v in the m-th step."""

    x: Matrix
    v: Vector
    m: int
    p: int

    def __post_init__(self):
        n = len(self.x)
        if any(len(row) != n for row in self.x) or len(self.v) != n:
            raise ValueError("dimension mismatch")
        if not 0 <= self.m <= n:
            raise ValueError(f"step index must lie in [0, {n}], got {self.m}")


def _count_plain(x: Matrix, v: Vector, m: int, p: int, budget: int = _FIBER_BUDGET) -> int:
    """Depth-first enumeration of stable flags with pruning at step m; the
    budget bounds the flag nodes it visits."""
    n = len(x)
    nodes = 0
    flags = 0

    def recurse(space: Subspace, depth: int) -> int:
        nonlocal nodes, flags
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"flag enumeration exceeded {budget} nodes; visited {nodes - 1} nodes "
                f"and found {flags} complete flags, stopped at depth {depth} of {n}"
            )
        if depth == m and not space.contains(v):
            return 0
        if depth == n:
            flags += 1
            return 1
        _, quotient = induced_maps(x, space, p)
        complement = [c for c in range(n) if c not in space.pivots]
        found = 0
        for a in range(p):
            shifted = mat_sub(quotient, scal_mul(a, identity(len(quotient)), p), p)
            for line in right_kernel(transpose(shifted), p).lines():
                lift = [0] * n
                for j, c in enumerate(complement):
                    lift[c] = line[j]
                found += recurse(space.sum(Subspace.from_vectors([tuple(lift)], n, p)),
                                 depth + 1)
        return found

    return recurse(Subspace.zero(n, p), 0)


_Table = Mapping[Bipartition, tuple[int, ...]]


def _pattern_dimensions(
    bla: Bipartition, p: int
) -> tuple[tuple[Bipartition, tuple[int, int, int, int]], ...]:
    """(quotient class, dimensions) of each non-empty line pattern of bla over GF(p).

    With I_k the row space of x^k, K the Krylov span of v and J_k = I_k + K,
    the quotient by L = <w> has rank x^k = dim I_k - [w in I_k] on V/L and
    dim J_k + [w not in J_k] - dim(K + L) on V/(K + L).  Both chains
    decrease, so the class of L depends only on a = max{k : w in I_k} and
    b = max{k : w in J_k}, and b >= a because I_a lies in J_a.  With
    A_a = I_a cap ker x and d(a, b) = dim(A_a cap J_b), the vectors of
    ker x with pattern (a, b) number

        q^d(a, b) - q^d(a + 1, b) - q^d(a, b + 1) + q^d(a + 1, b + 1),

    where the zero spaces A_h and J_(h + 1), h the nilpotency index of x,
    close both chains and exclude the zero vector.  The pattern is empty
    when its two subspaces of A_a cap J_b cover it, that is when
    {d(a, b), d(a + 1, b + 1)} = {d(a + 1, b), d(a, b + 1)}.  The dimensions
    take O(h^2) rank computations at p and enumerate no line.
    """
    z = orbit_representative(bla, p)
    n = z.n
    images = power_images(z.x, p)
    height = len(images) - 1
    krylov = Subspace.from_vectors(krylov_basis(z.x, z.v, p), n, p)
    joined = [space.sum(krylov) for space in images] + [Subspace.zero(n, p)]
    meets = []
    for space in images[:-1]:
        # I_a is x-stable: A_a is the kernel of x restricted to I_a.
        restriction, _ = induced_maps(z.x, space, p)
        kernel = right_kernel(transpose(restriction), p)
        meets.append(tuple(apply(c, space.basis, p) for c in kernel.basis))
    meets.append(())
    dims = [
        [
            len(meet)
            if b <= a
            else len(meet) + joined[b].dim - rank(meet + joined[b].basis, p)
            for b in range(height + 2)
        ]
        for a, meet in enumerate(meets)
    ]
    out = []
    for a in range(height):
        for b in range(a, height + 1):
            corners = (dims[a][b], dims[a + 1][b], dims[a][b + 1], dims[a + 1][b + 1])
            if sorted(corners[::3]) == sorted(corners[1:3]):
                continue
            lam = partition_from_ranks(
                [n - 1] + [images[k].dim - (k <= a) for k in range(1, height)] + [0]
            )
            k_and_l = krylov.dim + (b < height)
            rho = partition_from_ranks(
                [n - k_and_l]
                + [joined[k].dim + (k > b) - k_and_l for k in range(1, height + 1)]
            )
            out.append((bipartition_from_types(lam, rho), corners))
    return tuple(out)


def _evaluate(poly: Sequence[int], q: int) -> int:
    out = 0
    for c in reversed(poly):
        out = out * q + c
    return out


def _add_product(acc: list[int], a: Sequence[int], b: Sequence[int]) -> None:
    """acc += a * b, coefficients ascending; acc grows as needed."""
    if a and b and len(acc) < len(a) + len(b) - 1:
        acc.extend([0] * (len(a) + len(b) - 1 - len(acc)))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            acc[i + j] += x * y


@lru_cache(maxsize=None)
def _poly_table(bla: Bipartition) -> _Table:
    """{quotient class: number of lines in ker x, in Z[q]} for the normal form of bla.

    The subspace dimensions behind the table do not depend on the prime,
    so they are computed at 2 and at 3, and a difference raises.  A pattern
    with dimensions (d1, d2, d3, d4) has (q^d1 - q^d2 - q^d3 + q^d4) / (q - 1)
    lines.  The mapping is read-only because the cache hands it to every
    caller.
    """
    patterns = _pattern_dimensions(bla, 2)
    if _pattern_dimensions(bla, 3) != patterns:
        raise RuntimeError(f"the line patterns of {bla} differ between p=2 and p=3")
    out: dict[Bipartition, list[int]] = {}
    for key, corners in patterns:
        vectors = [0] * (corners[0] + 1)
        for d, sign in zip(corners, (1, -1, -1, 1)):
            vectors[d] += sign
        # synthetic division by q - 1, from the top coefficient down
        lines = [0] * corners[0]
        carry = 0
        for k in range(corners[0], 0, -1):
            carry += vectors[k]
            lines[k - 1] = carry
        if carry + vectors[0]:
            raise RuntimeError(
                f"{vectors} (ascending in q) vectors of a pattern in the table of "
                f"{bla} are not divisible by q - 1"
            )
        _add_product(out.setdefault(key, []), lines, (1,))  # out[key] += lines
    return MappingProxyType({key: tuple(lines) for key, lines in out.items()})


class _FiberCounter:
    """Stable-flag counts in Z[q] over orbit keys, driven by line-transition tables.

    A first step V_1 of a stable flag is a line L in ker(x - a) for an
    eigenvalue a, and the count from there on depends only on the orbit
    of the pair induced on V/L and on the remaining step index.  That orbit
    differs from the orbit of (x, v) only in the block of a, whose
    bipartition beta becomes the class of the quotient of the normal form
    of beta by a line of ker x.  The table {class: number of lines} is a
    polynomial in q cached per beta, so the recursion runs on (blocks, m)
    keys alone, once for every prime: a count polynomial evaluated at p is
    the count over GF(p).  The budget bounds the memo states one counter
    enters.

    With an eigenvalue order (s_1, ..., s_n), only flags on whose k-th
    quotient x acts by s_k are counted: a state with r dimensions left
    extends only blocks of eigenvalue s_(n - r + 1).  The step is fixed by
    the blocks, so the memo key stays (blocks, m).
    """

    def __init__(self, budget: int, order: Optional[Sequence[int]] = None):
        self.budget = budget
        self.order = None if order is None else tuple(order)
        self.tables: dict[Bipartition, _Table] = {}
        self.memo: dict = {}
        self.states = 0

    def table(self, bla: Bipartition) -> _Table:
        """Quotient classes of the lines in ker x for the normal form of bla."""
        if bla not in self.tables:
            self.tables[bla] = _poly_table(bla)
        return self.tables[bla]

    def count(self, blocks: tuple[tuple[int, Bipartition], ...], m: int) -> tuple[int, ...]:
        """Coefficients in q, ascending, of the flag count of the pair with these blocks."""
        if m == 0 and any(bla[0] for _, bla in blocks):
            return ()
        if not blocks:
            return (1,)
        key = (blocks, m)
        if key in self.memo:
            return self.memo[key]
        if self.states >= self.budget:
            raise BudgetExceededError(
                f"flag fiber recursion needs more than {self.budget} memo states; "
                f"reached {self.states} memo states, {len(self.memo)} of them finished, "
                f"in {len(self.tables)} bipartition tables"
            )
        self.states += 1
        found: list[int] = []
        wanted = None
        if self.order is not None:
            wanted = self.order[len(self.order) - sum(total(bla) for _, bla in blocks)]
        for i, (a, bla) in enumerate(blocks):
            if wanted is not None and a != wanted:
                continue
            for quotient, lines in self.table(bla).items():
                kept = ((a, quotient),) if total(quotient) else ()
                rest = self.count(blocks[:i] + kept + blocks[i + 1 :], max(m - 1, 0))
                _add_product(found, lines, rest)
        self.memo[key] = tuple(found)
        return self.memo[key]


def count_fiber(condition: FlagCondition, budget: int = _FIBER_BUDGET) -> int:
    """Exact number of x-stable complete flags with v in step m.

    A stable complete flag triangularizes x, so when the characteristic
    polynomial of x does not split over GF(p) the count is 0.  The depth
    first enumeration `_count_plain` is the tests' oracle.  The budget
    bounds the memo states of the recursion.
    """
    x, v, m, p = condition.x, condition.v, condition.m, condition.p
    try:
        classifier = MixedClassifier(x, p)
    except NonSplitError:
        return 0
    return _evaluate(_FiberCounter(budget).count(classifier.invariant(v).blocks, m), p)


@dataclass(frozen=True)
class SpringerReport:
    mu: Bipartition
    m: int
    n: int
    d_mu: int
    primes: tuple[int, ...]
    counts: tuple[int, ...]
    polynomial: CountPolynomial
    degree_ok: bool
    leading_ok: bool

    def to_json(self) -> dict:
        return {
            "mu": bipartition_to_json(self.mu),
            "m": self.m,
            "n": self.n,
            "d_mu": self.d_mu,
            "primes": list(self.primes),
            "counts": list(self.counts),
            "polynomial": self.polynomial.to_json(),
            "degree_ok": self.degree_ok,
            "leading_ok": self.leading_ok,
        }


def fiber_dimension(bmu: Bipartition) -> int:
    """Predicted fiber dimension (dim of the nilpotent variety + m - dim orbit)/2."""
    bmu = as_bipartition(bmu)
    n = total(bmu)
    m = size(bmu[0])
    num = n * n - n + m - orbit_dim(bmu, n)
    if num % 2:
        raise RuntimeError(f"odd dimension defect for {bmu}")
    return num // 2


def springer_report(
    bmu: Bipartition,
    m: int,
    primes: Optional[Sequence[int]] = None,
) -> SpringerReport:
    """Fiber count polynomial of the orbit bmu, with degree and leading checks."""
    bmu = as_bipartition(bmu)
    n = total(bmu)
    if size(bmu[0]) != m:
        raise ValueError(
            f"step index {m} must equal the first-component size {size(bmu[0])}"
        )
    d = fiber_dimension(bmu)
    if primes is None:
        primes = first_primes(d + 1, minimum=max(2, n) + 1)
    primes = tuple(primes)
    for p in primes:
        PrimeField(p)
    fiber = _FiberCounter(_FIBER_BUDGET).count(((0, bmu),) if n else (), m)
    counts = [_evaluate(fiber, p) for p in primes]
    poly = interpolate(CountSeries.of(list(zip(primes, counts))), d)
    if poly.coefficients != fiber + (0,) * (len(poly.coefficients) - len(fiber)):
        raise RuntimeError(
            f"the degree-{d} interpolant {poly.to_json()} of the counts of {bmu} "
            f"differs from the fiber polynomial {list(fiber)}"
        )
    return SpringerReport(
        mu=bmu,
        m=m,
        n=n,
        d_mu=d,
        primes=primes,
        counts=tuple(counts),
        polynomial=poly,
        degree_ok=(poly.degree == d and poly.leading != 0),
        leading_ok=(poly.leading == irr_dim(bmu)),
    )


def galois_degree_check(n: int, m: int, field: PrimeField) -> tuple[int, int, bool]:
    """Fiber count over a regular semisimple pair against the covering degree.

    Builds x with the distinct eigenvalues 1..n and v supported on the first
    m eigenlines; the count must be m! (n-m)!, the order of S_m x S_{n-m}.
    Returns (count, expected, ok).
    """
    p = field.p
    if p <= n:
        raise ValueError(f"need p > n for distinct eigenvalues, got p={p}, n={n}")
    x = tuple(
        tuple((i + 1) if i == j else 0 for j in range(n)) for i in range(n)
    )
    v = tuple(1 if i < m else 0 for i in range(n))
    count = count_fiber(FlagCondition(x, v, m, p))
    expected = factorial(m) * factorial(n - m)
    return count, expected, count == expected


def in_standard_flag_step(v: Vector, m: int) -> bool:
    """Whether v lies in the span of the first m coordinates."""
    return all(c == 0 for c in v[m:])


def slice_count(
    s: Matrix,
    z0: EnhancedPair,
    m: int,
    field: PrimeField,
    budget: int = _FIBER_BUDGET,
) -> int:
    """Points of the orbit O of z0 inside sU x M_m, by double counting.

    s must be diagonal, z0 = (s u, v0) with u flag-unipotent and v0 in M_m.
    Call z = (x, v) adapted to a complete flag F when x stabilizes F, v lies
    in F_m and x acts on F_k / F_(k-1) by s_kk.  With the row-vector action
    the pairs adapted to the standard flag are exactly sU x M_m, and GL_n
    acts transitively on complete flags, so counting the pairs (z in O, F)
    with z adapted to F in two ways gives

        |O cap (sU x M_m)| * [n]_p! = |O| * fiber_s(z0, m),

    where fiber_s counts the flags adapted to z0.  |O| is mixed_orbit_size
    and fiber_s the fiber recursion restricted to the eigenvalue order
    s_11, ..., s_nn; a nonzero remainder raises RuntimeError.  The budget
    bounds the memo states of the fiber count and the vectors of each
    orbit size.
    """
    p = field.p
    n = z0.n
    if any(s[i][j] for i in range(n) for j in range(n) if i != j):
        raise ValueError("s must be diagonal")
    if any(s[i][i] == 0 for i in range(n)):
        raise ValueError("s must be invertible")
    u = mat_mul(gfmat.mat_inv(s, p), z0.x, p)
    if any(u[i][i] != 1 for i in range(n)) or any(
        u[i][j] for i in range(n) for j in range(i + 1, n)
    ):
        raise ValueError("z0 is not of the form (s u, v0) with flag-unipotent u")
    if not in_standard_flag_step(z0.v, m):
        raise ValueError(f"v0 must lie in the span of the first {m} coordinates")
    diagonal = [s[i][i] for i in range(n)]
    target = MixedClassifier(z0.x, p, eigenvalues=diagonal).invariant(z0.v)
    counter = _FiberCounter(budget, order=diagonal)
    fiber = _evaluate(counter.count(target.blocks, m), p)
    try:
        pairs = mixed_orbit_size(target, field, budget) * fiber
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"{exc}; the fiber count had finished with {counter.states} memo states "
            f"in {len(counter.tables)} bipartition tables"
        ) from None
    count, rem = divmod(pairs, gaussian_factorial(n, p))
    if rem:
        raise RuntimeError(
            f"double count is not exact: |O| * fiber_s = {pairs} is not divisible "
            f"by [{n}]_{p}!"
        )
    return count
