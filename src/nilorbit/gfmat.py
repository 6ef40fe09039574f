"""Exact linear algebra over a prime field GF(p).

Matrices are immutable tuples of row tuples with entries reduced mod p.
Vectors are plain tuples.  Endomorphisms act on row vectors from the
right, ``w = apply(v, A, p)`` meaning w_j = sum_i v_i A[i][j]; with this
convention the Jordan block with ones on the subdiagonal sends e_i to
e_{i-1} and kills e_1, and the stabilizer of the standard coordinate
flag <e_1> < <e_1,e_2> < ... is the lower triangular group.

Subspaces are stored as reduced row echelon bases, which are canonical:
two spanning sets of the same subspace produce identical bases.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from .partitions import Partition, as_partition, conjugate

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its stated budget."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def __str__(self):
        return f"GF({self.p})"


def freeze(rows: Sequence[Sequence[int]], p: int) -> Matrix:
    return tuple(tuple(x % p for x in row) for row in rows)


def zeros(rows: int, cols: int) -> Matrix:
    return tuple((0,) * cols for _ in range(rows))


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_sub(a: Matrix, b: Matrix, p: int) -> Matrix:
    return tuple(
        tuple((x - y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def scal_mul(c: int, a: Matrix, p: int) -> Matrix:
    return tuple(tuple((c * x) % p for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    cols = list(zip(*b))
    mul = operator.mul
    return tuple(tuple([sum(map(mul, row, col)) % p for col in cols]) for row in a)


def mat_pow(a: Matrix, k: int, p: int) -> Matrix:
    result = identity(len(a))
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base, p)
        base = mat_mul(base, base, p)
        k >>= 1
    return result


def apply(v: Vector, a: Matrix, p: int) -> Vector:
    """Row-vector action v . A."""
    mul = operator.mul
    return tuple([sum(map(mul, v, col)) % p for col in zip(*a)])


def mat_inv(a: Matrix, p: int) -> Matrix:
    n = len(a)
    aug = [(*ra, *ri) for ra, ri in zip(a, identity(n))]
    _, pivots = _row_reduce(aug, p)
    # [a | I] always has rank n; a is invertible iff its own columns hold the pivots
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(row[n:]) for row in aug)


def _row_reduce(rows: list[Sequence[int]], p: int) -> tuple[int, list[int]]:
    """In-place reduced row echelon form; returns (rank, pivot columns).

    Every row is replaced by a list of its entries reduced mod p on entry,
    so the rows come out reduced, zero rows included, and the input rows
    themselves are never mutated.
    """
    nrows = len(rows)
    if not nrows:
        return 0, []
    for i in range(nrows):
        rows[i] = [x % p for x in rows[i]]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        for piv in range(r, nrows):
            if rows[piv][c]:
                break
        else:
            continue
        row = rows[piv]
        rows[piv] = rows[r]
        lead = row[c]
        if lead != 1:
            inv = pow(lead, p - 2, p)
            row = [(x * inv) % p for x in row]
        rows[r] = row
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots


def rref(a: Matrix, p: int) -> tuple[Matrix, int, list[int]]:
    """Reduced row echelon form, rank and pivot columns (zero rows kept, reduced mod p)."""
    rows = list(a)
    rank, pivots = _row_reduce(rows, p)
    return tuple(tuple(r) for r in rows), rank, pivots


def rank(a: Matrix, p: int) -> int:
    r, _ = _row_reduce(list(a), p)
    return r


def _kernel_of_reduced(rows: Sequence[Sequence[int]], pivots: list[int], ncols: int, p: int) -> "Subspace":
    """Right kernel read off rows already in reduced row echelon form."""
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for c in free:
        w = [0] * ncols
        w[c] = 1
        for i, pc in enumerate(pivots):
            w[pc] = (-rows[i][c]) % p
        basis.append(tuple(w))
    return Subspace.from_vectors(basis, ncols, p)


def _require_rows(a: Matrix) -> None:
    """A matrix with no rows has lost its column count, so its kernel is unknown."""
    if not a:
        raise ValueError("a system with no rows does not fix its number of columns")


def right_kernel(a: Matrix, p: int) -> "Subspace":
    """Canonical basis of {w : A w^T = 0} as a subspace of GF(p)^cols.

    Raises ValueError when A has no rows.
    """
    _require_rows(a)
    rows = list(a)
    _, pivots = _row_reduce(rows, p)
    return _kernel_of_reduced(rows, pivots, shape(a)[1], p)


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(p)^ambient with canonical RREF basis rows."""

    ambient: int
    p: int
    basis: Matrix  # nonzero RREF rows, strictly increasing pivots
    pivots: tuple[int, ...]

    @staticmethod
    def from_vectors(vectors: Sequence[Vector], ambient: int, p: int) -> "Subspace":
        rows = list(vectors)
        r, pivots = _row_reduce(rows, p)
        return Subspace(ambient, p, tuple(tuple(row) for row in rows[:r]), tuple(pivots))

    @staticmethod
    def zero(ambient: int, p: int) -> "Subspace":
        return Subspace(ambient, p, (), ())

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def full(ambient: int, p: int) -> "Subspace":
        return Subspace(ambient, p, identity(ambient), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: Vector) -> Vector:
        """Residue of v after subtracting its projection onto the basis."""
        w = list(x % self.p for x in v)
        for row, c in zip(self.basis, self.pivots):
            f = w[c]
            if f:
                w = [(x - f * y) % self.p for x, y in zip(w, row)]
        return tuple(w)

    def contains(self, v: Vector) -> bool:
        return not any(self.reduce(v))

    def coords(self, v: Vector) -> Vector:
        """Coordinates of v in the canonical basis; raises if v is outside."""
        if not self.contains(v):
            raise ValueError("vector not in subspace")
        w = tuple(x % self.p for x in v)
        return tuple(w[c] for c in self.pivots)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace.from_vectors(
            list(self.basis) + list(other.basis), self.ambient, self.p
        )

    def lines(self) -> Iterator[Vector]:
        """One monic representative per 1-dimensional subspace of self."""
        p, d = self.p, self.dim
        for lead in range(d):
            # coefficient of basis row `lead` is 1, earlier rows 0
            tail = d - lead - 1
            for idx in range(p**tail):
                coeffs = [0] * lead + [1]
                k = idx
                for _ in range(tail):
                    coeffs.append(k % p)
                    k //= p
                yield tuple(
                    sum(c * row[j] for c, row in zip(coeffs, self.basis)) % p
                    for j in range(self.ambient)
                )


def jordan_block(k: int) -> Matrix:
    """Nilpotent k x k block with ones on the subdiagonal (e_i -> e_{i-1})."""
    return tuple(
        tuple(1 if j == i - 1 else 0 for j in range(k)) for i in range(k)
    )


def jordan_matrix(nu: Partition, p: int) -> Matrix:
    """Block diagonal nilpotent matrix with blocks of sizes nu_i."""
    nu = as_partition(nu)
    n = sum(nu)
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for k in nu:
        blk = jordan_block(k)
        for i in range(k):
            for j in range(k):
                rows[offset + i][offset + j] = blk[i][j]
        offset += k
    return freeze(rows, p)


def is_nilpotent(x: Matrix, p: int) -> bool:
    n = len(x)
    if any(len(row) != n for row in x):
        raise ValueError("matrix must be square")
    return mat_pow(x, n, p) == zeros(n, n)


def power_images(x: Matrix, p: int) -> list["Subspace"]:
    """Row spaces of x^0, x^1, ... of a nilpotent x, ending with the zero space.

    Each space is the image of the previous one under x.  Raises ValueError
    when the dimensions stop decreasing above 0, i.e. x is not nilpotent.
    """
    n = len(x)
    if any(len(row) != n for row in x):
        raise ValueError("matrix must be square")
    spaces = [Subspace.full(n, p)]
    images = x  # the rows of x are the images of the standard basis
    while spaces[-1].dim:
        image = Subspace.from_vectors(images, n, p)
        if image.dim == spaces[-1].dim:
            raise ValueError("matrix is not nilpotent")
        spaces.append(image)
        images = [apply(b, x, p) for b in image.basis]
    return spaces


def partition_from_ranks(ranks: Sequence[int]) -> Partition:
    """Jordan type from the ranks of x^0, x^1, ... down to 0.

    rank(x^{k-1}) - rank(x^k) counts the parts of size at least k, so those
    differences are the columns of the type.
    """
    if not ranks or ranks[-1] != 0:
        raise ValueError(f"rank sequence {list(ranks)} does not end at 0")
    columns = [a - b for a, b in zip(ranks, ranks[1:]) if a != b]
    return conjugate(as_partition(columns))


def random_matrix(n: int, p: int, rng: random.Random) -> Matrix:
    return tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))


def random_invertible(n: int, p: int, seed: int) -> Matrix:
    """Deterministic pseudorandom invertible matrix (Mersenne Twister seed)."""
    rng = random.Random(seed)
    while True:
        g = random_matrix(n, p, rng)
        if rank(g, p) == n:
            return g


def all_vectors(n: int, p: int) -> Iterator[Vector]:
    """All of GF(p)^n, the first coordinate changing fastest."""
    for digits in itertools.product(range(p), repeat=n):
        yield digits[::-1]


def all_matrices(n: int, p: int) -> Iterator[Matrix]:
    for flat in all_vectors(n * n, p):
        yield tuple(flat[i * n : (i + 1) * n] for i in range(n))


def unitriangular_positions(order: Sequence[int]) -> list[tuple[int, int]]:
    """Free entries (order[i], order[j]), j < i, of the flag's unitriangular group."""
    dim = len(order)
    return [(order[i], order[j]) for i in range(dim) for j in range(i)]
