"""Exact bookkeeping for point counts: polynomials in Z[q], series, growth rates.

A count polynomial is the tuple (or list) of its integer coefficients in
q, ascending; the empty tuple is the zero polynomial.  This module is the
one place that multiplies, divides and evaluates them, and it holds the
group orders that counts are divided by, each a monic polynomial in q, so
that every division is exact long division in Z[q].  A count series is a list of
(prime, count) pairs; its growth rate across primes, rounded to the
nearest integer in exact arithmetic, estimates the one dimension whose
count has no polynomial yet (the double-flag bound).  No float enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .gfmat import _is_prime


@dataclass(frozen=True)
class CountSeries:
    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        primes = [q for q, _ in self.points]
        if primes != sorted(set(primes)):
            raise ValueError("primes must be distinct and increasing")
        if any(c < 0 for _, c in self.points):
            raise ValueError("counts must be nonnegative")

    @staticmethod
    def of(points: Sequence[tuple[int, int]]) -> "CountSeries":
        return CountSeries(tuple((int(q), int(c)) for q, c in points))


def _twice_rate_sign(q1: int, c1: int, q2: int, c2: int, e: int) -> int:
    """Sign of 2 log(c2/c1) - e log(q2/q1), from c2^2 q1^e against c1^2 q2^e."""
    if e >= 0:
        lhs, rhs = c2 * c2 * q1**e, c1 * c1 * q2**e
    else:
        lhs, rhs = c2 * c2 * q2**-e, c1 * c1 * q1**-e
    return (lhs > rhs) - (lhs < rhs)


def slope_estimates(series: CountSeries) -> list[int]:
    """Nearest integer to the growth rate log(c2/c1) / log(q2/q1) of each
    consecutive pair of points, in exact integer arithmetic.

    The estimate is the d with c2^2 q1^(2d-1) > c1^2 q2^(2d-1) and
    c2^2 q1^(2d+1) < c1^2 q2^(2d+1).  A rate that is exactly a half-integer
    raises ValueError instead of being rounded either way.
    """
    pts = series.points
    if len(pts) < 2:
        raise ValueError("need at least two points")
    if any(c == 0 for _, c in pts):
        raise ValueError("counts must be positive for slope estimation")
    out = []
    for (q1, c1), (q2, c2) in zip(pts, pts[1:]):
        d = 0
        while _twice_rate_sign(q1, c1, q2, c2, 2 * d + 1) > 0:
            d += 1
        while _twice_rate_sign(q1, c1, q2, c2, 2 * d - 1) < 0:
            d -= 1
        if not (
            _twice_rate_sign(q1, c1, q2, c2, 2 * d + 1)
            and _twice_rate_sign(q1, c1, q2, c2, 2 * d - 1)
        ):
            raise ValueError(
                f"growth rate between {(q1, c1)} and {(q2, c2)} is a half-integer"
            )
        out.append(d)
    return out


def degree(poly: Sequence[int]) -> int:
    """Index of the highest nonzero coefficient; 0 for the zero polynomial."""
    return max((i for i, c in enumerate(poly) if c), default=0)


def evaluate(poly: Sequence[int], q: int) -> int:
    """The value of the polynomial at q, by Horner's rule."""
    out = 0
    for c in reversed(poly):
        out = out * q + c
    return out


def poly_mul(
    a: Sequence[int], b: Sequence[int], acc: Optional[list[int]] = None
) -> list[int]:
    """a * b, coefficients ascending.  Given acc, adds the product into it in
    place, growing it as needed, and returns it."""
    if acc is None:
        acc = []
    if a and b and len(acc) < len(a) + len(b) - 1:
        acc.extend([0] * (len(a) + len(b) - 1 - len(acc)))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            acc[i + j] += x * y
    return acc


def poly_div(num: Sequence[int], den: Sequence[int]) -> tuple[int, ...]:
    """num / den in Z[q] for a monic den, by schoolbook long division.

    Raises ValueError unless den is monic, and RuntimeError, naming both
    polynomials, when the remainder is not zero.
    """
    top = degree(den)
    if not den or den[top] != 1:
        raise ValueError(f"divisor {tuple(den)} is not monic")
    rem = list(num)
    quotient = [0] * max(len(rem) - top, 0)
    for k in reversed(range(len(quotient))):
        quotient[k] = c = rem[k + top]
        for i in range(top + 1):
            rem[k + i] -= c * den[i]
    if any(rem):
        raise RuntimeError(
            f"division in Z[q] is not exact: {tuple(num)} / {tuple(den)}"
        )
    while quotient and not quotient[-1]:
        quotient.pop()
    return tuple(quotient)


def _product(factors: Sequence[Sequence[int]]) -> list[int]:
    out = [1]
    for factor in factors:
        out = poly_mul(out, factor)
    return out


def _q_power_minus_one(k: int) -> list[int]:
    return [-1] + [0] * (k - 1) + [1]


def gaussian_factorial_poly(m: int) -> list[int]:
    """[m]_q! = prod over k <= m of 1 + q + ... + q^(k-1), the number of
    complete flags of GF(q)^m."""
    return _product([[1] * k for k in range(1, m + 1)])


def type_c_poincare_poly(n: int) -> list[int]:
    """P_C(q) = prod over i <= n of 1 + q + ... + q^(2i-1), the sum of
    q^length over the hyperoctahedral group W_n and the number of isotropic
    flags of GF(q)^(2n)."""
    return _product([[1] * (2 * i) for i in range(1, n + 1)])


def gl_order_poly(n: int) -> list[int]:
    """|GL_n(GF(q))| = q^(n(n-1)/2) prod over i <= n of (q^i - 1)."""
    return _product(
        [[0] * (n * (n - 1) // 2) + [1]] + [_q_power_minus_one(i) for i in range(1, n + 1)]
    )


def sp_order_poly(m: int) -> list[int]:
    """|Sp_2m(GF(q))| = q^(m^2) prod over i <= m of (q^(2i) - 1)."""
    return _product(
        [[0] * (m * m) + [1]] + [_q_power_minus_one(2 * i) for i in range(1, m + 1)]
    )


def first_primes(count: int, minimum: int = 2) -> list[int]:
    """The first `count` primes strictly greater than minimum - 1."""
    out: list[int] = []
    candidate = max(2, minimum)
    while len(out) < count:
        if _is_prime(candidate):
            out.append(candidate)
        candidate += 1
    return out
