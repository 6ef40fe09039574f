"""Exact bookkeeping for point counts: series, interpolation, growth rates.

A count series is a list of (prime, count) pairs.  When a family of counts
is known to be polynomial in the field size, Lagrange interpolation over
exact rationals recovers the polynomial and every recorded point is
re-checked against it; a mismatch is always surfaced.  When interpolation
is out of reach, the growth rate across primes, rounded to the nearest
integer in exact arithmetic, serves as a dimension estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .gfmat import _is_prime


class InterpolationError(ValueError):
    """The recorded counts do not lie on a polynomial of the claimed degree."""


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


@dataclass(frozen=True)
class CountPolynomial:
    """Polynomial in q with exact rational coefficients, ascending degree."""

    coefficients: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        for i in range(len(self.coefficients) - 1, -1, -1):
            if self.coefficients[i]:
                return i
        return 0

    @property
    def leading(self) -> Fraction:
        if not self.coefficients:
            return Fraction(0)
        return self.coefficients[self.degree]

    def __call__(self, q: int) -> Fraction:
        out = Fraction(0)
        for c in reversed(self.coefficients):
            out = out * q + c
        return out

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coefficients]


def interpolate(series: CountSeries, degree_bound: int) -> CountPolynomial:
    """Unique polynomial of degree <= degree_bound through the series.

    Uses the first degree_bound + 1 points, then re-evaluates at every
    recorded point; any residual raises InterpolationError.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    pts = series.points
    if len(pts) < degree_bound + 1:
        raise ValueError(
            f"need {degree_bound + 1} points for degree {degree_bound}, got {len(pts)}"
        )
    nodes = pts[: degree_bound + 1]
    coeffs = [Fraction(0)] * (degree_bound + 1)
    for qi, ci in nodes:
        basis = [Fraction(1)]
        denom = Fraction(1)
        for qj, _ in nodes:
            if qj == qi:
                continue
            # multiply the running basis polynomial by (q - qj)
            shifted = [Fraction(0)] + basis
            basis = [
                shifted[k] - qj * (basis[k] if k < len(basis) else 0)
                for k in range(len(shifted))
            ]
            denom *= qi - qj
        scale = Fraction(ci) / denom
        for k, b in enumerate(basis):
            coeffs[k] += scale * b
    poly = CountPolynomial(tuple(coeffs))
    for q, c in pts:
        if poly(q) != c:
            raise InterpolationError(
                f"count at q={q} is {c} but the degree-{degree_bound} "
                f"interpolant gives {poly(q)}"
            )
    return poly


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


def slope_dim(series: CountSeries) -> int:
    """Dimension estimate from growth across primes; consensus is mandatory."""
    estimates = slope_estimates(series)
    if len(set(estimates)) != 1:
        raise ValueError(
            f"inconsistent growth estimates {estimates} for counts {series.points}"
        )
    return estimates[0]


def growth_exponent(series: CountSeries) -> int:
    """Dimension estimate robust to bounded multiplicative drift.

    Point counts of the shape kappa(p) * p^d with kappa slowly varying
    (products of (1 - p^-i) factors) drag consecutive-pair slopes off the
    integer at small primes.  The least-squares slope across all points
    absorbs the drift; the endpoint slope must round to the same integer,
    otherwise the estimate is rejected.
    """
    pts = series.points
    if len(pts) < 2:
        raise ValueError("need at least two points")
    if any(c == 0 for _, c in pts):
        raise ValueError("counts must be positive for slope estimation")
    xs = [math.log(q) for q, _ in pts]
    ys = [math.log(c) for _, c in pts]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    sxx = sum((x - mean_x) ** 2 for x in xs)
    fit = round(sxy / sxx)
    ends = round((ys[-1] - ys[0]) / (xs[-1] - xs[0]))
    if fit != ends:
        raise ValueError(
            f"growth estimates disagree (fit {fit}, endpoints {ends}) "
            f"for counts {pts}"
        )
    return fit


def gaussian_int(k: int, q: int) -> int:
    """[k]_q = 1 + q + ... + q^{k-1}."""
    return sum(q**i for i in range(k))


def gaussian_factorial(m: int, q: int) -> int:
    """[m]_q! = prod_{k=1..m} [k]_q, the flag count of GL_m over F_q."""
    out = 1
    for k in range(1, m + 1):
        out *= gaussian_int(k, q)
    return out


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


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
