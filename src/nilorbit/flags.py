"""Point counts of fixed-vector flag varieties over GF(p).

The central object is the fiber over a pair (x, v): complete flags
0 < V_1 < ... < V_n stabilized by x step by step, with v required to lie
in the m-th step.  Its count is a polynomial in q with integer
coefficients, computed once and evaluated at each prime; its degree and
leading coefficient are the quantities the verification suites check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .counting import (
    CountSeries,
    degree,
    evaluate,
    first_primes,
    gaussian_factorial,
    poly_mul,
)
from .gfmat import Matrix, PrimeField, Vector, mat_mul, partition_from_ranks
from . import gfmat
from .pairs import (
    EnhancedPair,
    MixedClassifier,
    NonSplitError,
    bipartition_from_types,
    mixed_orbit_size,
)
from .partitions import (
    Bipartition,
    as_bipartition,
    bipartition_to_json,
    irr_dim,
    orbit_dim,
    partition_sum,
    size,
    total,
)


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


_Table = Mapping[Bipartition, tuple[int, ...]]


def _nonempty_patterns(dims: Sequence[Sequence[int]]) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """(a, b, corners) of each non-empty pattern, given dims[a][b] = dim(A_a cap B_b)
    for two decreasing chains closed by the zero space.

    The vectors of A_a cap B_b in neither A_(a + 1) nor B_(b + 1) number
    q^c1 - q^c2 - q^c3 + q^c4 for the corners (c1, c2, c3, c4) = (d(a, b),
    d(a + 1, b), d(a, b + 1), d(a + 1, b + 1)), none when {c1, c4} = {c2, c3}.
    """
    for a in range(len(dims) - 1):
        for b in range(len(dims[a]) - 1):
            corners = (dims[a][b], dims[a + 1][b], dims[a][b + 1], dims[a + 1][b + 1])
            if sorted(corners[::3]) != sorted(corners[1:3]):
                yield a, b, corners


def _line_patterns(
    bla: Bipartition, exotic: bool = False
) -> tuple[tuple[Bipartition, tuple[int, ...]], ...]:
    """(quotient class, corners) of each non-empty line pattern of bla, from
    the partitions alone.

    The quotient by a line L = <w> of ker x has rank x^k = dim I_k - [w in I_k]
    on V/L and dim J_k + [w not in J_k] - dim(K + L) on V/(K + L), with I_k
    the row space of x^k, K the Krylov span of v and J_k = I_k + K.  Both
    chains decrease, so the class of L depends only on a = max{k : w in I_k}
    and b = max{k : w in J_k}, and b >= a because I_a lies in J_a.  The lines
    are counted by `_nonempty_patterns` over A_a = I_a cap ker x and the J_b,
    closed by the zero spaces A_h and J_(h + 1), h = lam_1.

    Every dimension is read off the normal form (Achar-Henderson, Orbit
    closures in the enhanced nilpotent cone, Adv. Math. 219 (2008), sec. 2-3):
    lam = mu + nu, e_(i,k) the height-k vector of block i, x sends e_(i,k)
    to e_(i,k-1) and v = sum of the e_(i,mu_i), so v x^j = sum over mu_i > j
    of e_(i,mu_i-j), and e_(i,k) lies in I_b exactly when k <= lam_i - b.
    With t = mu_1 and S_j(b) = {i : mu_i > j and nu_i + j < b}, the residue
    of v x^j mod I_b is the sum of the e_(i,mu_i-j) over S_j(b); the
    residues have disjoint supports, so the non-zero ones are independent.

    - dim I_k = sum of max(lam_i - k, 0), and dim K = t.
    - dim J_k = dim I_k + #{j < t : S_j(k) non-empty}.
    - For b <= a, dim(A_a cap J_b) = dim A_a = #{i : lam_i > a}.
    - For b > a, dim(A_a cap J_b) = #{i : lam_i > b} plus the number of
      j < t with S_j(b) non-empty and mu_i = j + 1, lam_i > a for every i
      in S_j(b).  Write w in J_b as y + sum of c_j r_j, with y in I_b and
      r_j the residues.  r_j x is the sum of the e_(i,mu_i-j-1) over
      S_j(b) (e_(i,0) = 0), none of them in I_(b + 1), with disjoint
      supports, while y x lies in I_(b + 1).  So w x = 0 forces y into A_b
      and c_j = 0 unless r_j x = 0, that is mu_i = j + 1 on S_j(b), when
      r_j is a sum of bottom vectors e_(i,1); such an r_j lies in I_a
      exactly when lam_i > a on S_j(b).

    With exotic, bla is an exotic key and the lines are those of its doubled
    normal form: each dimension gains the W* summand F(a, b), with b read as
    the exotic index d, and the quotient keys are unchanged.
    `symplectic._exotic_table` derives both.
    """
    mu, nu = bla
    lam = partition_sum(mu, nu)
    n, rows = sum(lam), len(lam)
    mu = mu + (0,) * (rows - len(mu))
    nu = nu + (0,) * (rows - len(nu))
    height, t = (lam[0], mu[0]) if lam else (0, 0)
    images = [sum(max(la - k, 0) for la in lam) for k in range(height + 1)]
    kernels = [sum(la > a for la in lam) for a in range(height)] + [0]
    # per b: dim J_b; min lam_i over each S_j(b) of bottom vectors; and, for
    # each j with S_j(b) empty, max lam_i over the nu_i = b - j (exotic only)
    joined, bottoms, tops = [], [], []
    for b in range(height + 1):
        residues = [[i for i in range(rows) if mu[i] > j and nu[i] + j < b] for j in range(t)]
        joined.append(images[b] + sum(1 for s in residues if s))
        bottoms.append([
            min(lam[i] for i in s)
            for j, s in enumerate(residues)
            if s and all(mu[i] == j + 1 for i in s)
        ])
        tops.append([
            max((lam[i] for i in range(rows) if nu[i] == b - j), default=0)
            for j, s in enumerate(residues)
            if not s
        ])
    joined.append(0)
    dims = [
        [
            0 if b > height
            else kernels[a] if b <= a
            else kernels[b] + sum(low > a for low in bottoms[b])
            for b in range(height + 2)
        ]
        for a in range(height + 1)
    ]
    if exotic:
        for a, row in enumerate(dims):
            for b in range(height + 1):
                top = max(a, b)
                row[b] += kernels[top] - sum(la > top for la in tops[b])
    out = []
    for a, b, corners in _nonempty_patterns(dims):
        quotient_lam = partition_from_ranks(
            [n - 1] + [images[k] - (k <= a) for k in range(1, height)] + [0]
        )
        k_and_l = t + (b < height)
        rho = partition_from_ranks(
            [n - k_and_l] + [joined[k] + (k > b) - k_and_l for k in range(1, height + 1)]
        )
        out.append((bipartition_from_types(quotient_lam, rho), corners))
    return tuple(out)


def _lines_in_q(patterns: Sequence[tuple[Bipartition, tuple[int, ...]]]) -> _Table:
    """{quotient class: number of lines, in Z[q]} from (class, corners) pairs.

    A pattern with corners (d1, d2, d3, d4) has (q^d1 - q^d2 - q^d3 + q^d4)
    / (q - 1) lines, and (q^a - q^b) / (q - 1) = q^b + ... + q^(a - 1).  The
    mapping is read-only because the caches hand it to every caller.
    """
    out: dict[Bipartition, list[int]] = {}
    for quotient, (d1, d2, d3, d4) in patterns:
        lines = [(d2 <= k) - (d4 <= k < d3) for k in range(d1)]
        poly_mul(lines, (1,), out.setdefault(quotient, []))  # out[quotient] += lines
    return MappingProxyType({quotient: tuple(lines) for quotient, lines in out.items()})


@lru_cache(maxsize=None)
def _poly_table(bla: Bipartition) -> _Table:
    """{quotient class: number of lines in ker x, in Z[q]} for the normal form
    of bla, from its patterns in closed form."""
    return _lines_in_q(_line_patterns(bla))


@lru_cache(maxsize=None)
def _fiber_polynomial(
    blocks: tuple[tuple[int, Bipartition], ...], m: int, order: tuple[int, ...] = (),
    table: Callable[[Bipartition], _Table] = _poly_table,
) -> tuple[int, ...]:
    """Coefficients in q, ascending, of the stable-flag count of the pair with these blocks.

    A first step V_1 of a stable flag is a line L in ker(x - a) for an
    eigenvalue a, and the count from there on depends only on the orbit
    of the pair induced on V/L and on the remaining step index.  That orbit
    differs from the orbit of (x, v) only in the block of a, whose
    bipartition beta becomes the class of the quotient of the normal form
    of beta by a line of ker x.  `_poly_table(beta)` counts those lines per
    class in Z[q], so the recursion runs on orbit keys alone, once for
    every prime: a count polynomial evaluated at p is the count over GF(p).
    The cache is process-wide, so one count's sub-states serve every later
    count.

    A non-empty order (s_1, ..., s_r), r the dimension left, counts only
    the flags on whose k-th quotient x acts by s_k: the first step extends
    only blocks of eigenvalue s_1, and the rest of the flag follows
    (s_2, ..., s_r).

    `table` maps a block's key to its lines; the exotic one keeps v's
    condition in them, and its callers pass m = the dimension left.
    """
    if m == 0 and any(bla[0] for _, bla in blocks):
        return ()
    if not blocks:
        return (1,)
    found: list[int] = []
    for i, (a, bla) in enumerate(blocks):
        if order and a != order[0]:
            continue
        for quotient, lines in table(bla).items():
            kept = ((a, quotient),) if total(quotient) else ()
            rest = _fiber_polynomial(
                blocks[:i] + kept + blocks[i + 1 :], max(m - 1, 0), order[1:], table
            )
            poly_mul(lines, rest, found)
    return tuple(found)


def count_fiber(condition: FlagCondition) -> int:
    """Exact number of x-stable complete flags with v in step m.

    A stable complete flag triangularizes x, so when the characteristic
    polynomial of x does not split over GF(p) the count is 0.  The depth
    first enumeration `count_plain` in `tests/oracles.py` is its oracle.
    """
    x, v, m, p = condition.x, condition.v, condition.m, condition.p
    try:
        classifier = MixedClassifier(x, p)
    except NonSplitError:
        return 0
    return evaluate(_fiber_polynomial(classifier.invariant(v).blocks, m), p)


@dataclass(frozen=True)
class SpringerReport:
    mu: Bipartition
    m: int
    n: int
    d_mu: int
    primes: tuple[int, ...]
    counts: tuple[int, ...]
    polynomial: tuple[int, ...]
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
            "polynomial": [str(c) for c in self.polynomial],
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
    """Fiber count polynomial of the orbit bmu, with degree and leading checks.

    The polynomial is the fiber recursion's, padded with zeros to d_mu + 1
    coefficients; the counts are its values at the primes, of which there
    must be at least d_mu + 1.  A polynomial of degree above d_mu is kept
    whole and fails the degree check.
    """
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
    fiber = _fiber_polynomial(((0, bmu),) if n else (), m)
    # the series rejects primes that are not distinct and increasing
    series = CountSeries.of([(p, evaluate(fiber, p)) for p in primes])
    if len(primes) < d + 1:
        raise ValueError(f"need {d + 1} points for degree {d}, got {len(primes)}")
    poly = fiber + (0,) * (d + 1 - len(fiber))
    top = degree(poly)
    return SpringerReport(
        mu=bmu,
        m=m,
        n=n,
        d_mu=d,
        primes=primes,
        counts=tuple(c for _, c in series.points),
        polynomial=poly,
        degree_ok=(top == d and poly[top] != 0),
        leading_ok=(poly[top] == irr_dim(bmu)),
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


def slice_count(s: Matrix, z0: EnhancedPair, m: int, field: PrimeField) -> int:
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
    s_11, ..., s_nn; a nonzero remainder raises RuntimeError.
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
    diagonal = tuple(s[i][i] for i in range(n))
    target = MixedClassifier(z0.x, p, eigenvalues=diagonal).invariant(z0.v)
    fiber = evaluate(_fiber_polynomial(target.blocks, m, diagonal), p)
    pairs = mixed_orbit_size(target, field) * fiber
    count, rem = divmod(pairs, gaussian_factorial(n, p))
    if rem:
        raise RuntimeError(
            f"double count is not exact: |O| * fiber_s = {pairs} is not divisible "
            f"by [{n}]_{p}!"
        )
    return count
