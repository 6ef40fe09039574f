"""Exact bookkeeping for point counts: polynomials in Z[q], series, growth rates.

A count polynomial is the tuple (or list) of its integer coefficients in
q, ascending; the empty tuple is the zero polynomial.  This module is the
one place that multiplies and evaluates them.  A count series is a list of
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


def gaussian_int(k: int, q: int) -> int:
    """[k]_q = 1 + q + ... + q^{k-1}."""
    return sum(q**i for i in range(k))


def gaussian_factorial(m: int, q: int) -> int:
    """[m]_q! = prod_{k=1..m} [k]_q, the flag count of GL_m over F_q."""
    out = 1
    for k in range(1, m + 1):
        out *= gaussian_int(k, q)
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


def gaussian_factorial_poly(m: int) -> list[int]:
    """Integer coefficients of [m]_q! as a polynomial in q, ascending."""
    out = [1]
    for k in range(1, m + 1):
        out = poly_mul(out, [1] * k)
    return out


def first_primes(count: int, minimum: int = 2) -> list[int]:
    """The first `count` primes strictly greater than minimum - 1."""
    out: list[int] = []
    candidate = max(2, minimum)
    while len(out) < count:
        if _is_prime(candidate):
            out.append(candidate)
        candidate += 1
    return out
