"""The symplectic side: twisted conjugation, isotropic flags, orbit checks.

V = GF(p)^{2n} carries the standard symplectic form in the basis
e_1..e_n, f_1..f_n.  The involution theta(g) = J (g^T)^{-1} J^{-1} fixes
exactly the symplectic group, and the twisted set {g : theta(g) = g^{-1}}
models the quotient of GL_{2n} by it.  Pairs (x, v) with x in the twisted
set are acted on by Sp_{2n}(F_p); an orbit's size is read off the
blockwise classifier of pairs and the class polynomials of `pairs`.

The flag-stabilizing Borel subgroup is taken in the theta-stable flag
order e_1, ..., e_n, f_n, ..., f_1; with the row-vector action its
unipotent radical is lower unitriangular in that order.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from . import gfmat
from .gfmat import (
    BudgetExceededError,
    Matrix,
    PrimeField,
    Subspace,
    Vector,
    apply,
    mat_inv,
    mat_mul,
    rank,
    transpose,
)
from .counting import degree, evaluate
from .flags import _Table, _fiber_polynomial, _line_patterns, _lines_in_q
from .pairs import MixedClassifier, NonSplitError, class_polynomial
from .partitions import Bipartition, conjugate, partition_sum, total


@dataclass(frozen=True)
class SymplecticSpace:
    """GF(p)^{2n} with the split symplectic form <e_i, f_i> = 1."""

    n: int
    p: int

    def __post_init__(self):
        PrimeField(self.p)
        if self.n < 1:
            raise ValueError("half-dimension must be positive")

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def nu_h(self) -> int:
        """Dimension of a maximal unipotent subgroup of Sp_{2n} (= n^2)."""
        return self.n * self.n

    @cached_property
    def gram(self) -> Matrix:
        n, p = self.n, self.p
        rows = [[0] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            rows[i][n + i] = 1
            rows[n + i][i] = (-1) % p
        return tuple(tuple(r) for r in rows)

    @cached_property
    def gram_entries(self) -> tuple[tuple[int, int], ...]:
        """(column, value) of the one nonzero entry in each row of J."""
        return signed_rows(self.gram)

    @cached_property
    def gram_column_entries(self) -> tuple[tuple[int, int], ...]:
        """(row, value) of the one nonzero entry in each column of J."""
        return signed_rows(transpose(self.gram))

    @cached_property
    def flag_order(self) -> tuple[int, ...]:
        """Coordinates of the theta-stable flag: e_1..e_n, f_n..f_1."""
        n = self.n
        return tuple(range(n)) + tuple(range(2 * n - 1, n - 1, -1))

    def form(self, u: Vector, w: Vector) -> int:
        p = self.p
        return sum(x * y for x, y in zip(apply(u, self.gram, p), w)) % p

    def theta(self, g: Matrix) -> Matrix:
        return self.theta_inv_of(mat_inv(g, self.p))

    def theta_inv_of(self, g: Matrix) -> Matrix:
        """theta(g)^{-1} = J g^T J^{-1}, avoiding one inversion: the
        conjugate of g^T by the signed permutation J.  For symplectic g
        this is g^{-1}."""
        return signed_conjugate(self.gram_entries, transpose(g), self.p)

    def gram_times(self, g: Matrix) -> Matrix:
        """J g, by signed row moves: row i is eps_i times row k_i of g."""
        p = self.p
        return tuple(tuple([e * x % p for x in g[k]]) for k, e in self.gram_entries)

    def times_gram(self, rows: Sequence[Vector]) -> Matrix:
        """Each row v times J, by signed entry moves: (v J)[j] = eps v[i]
        for the one nonzero J[i][j] = eps in column j."""
        p, columns = self.p, self.gram_column_entries
        return tuple(tuple([e * v[i] % p for i, e in columns]) for v in rows)

    def is_symplectic(self, g: Matrix) -> bool:
        return mat_mul(mat_mul(g, self.gram, self.p), transpose(g), self.p) == self.gram

    def in_twisted_set(self, g: Matrix) -> bool:
        """Whether the invertible g satisfies theta(g) = g^{-1}.

        theta(g) g = I rearranges to J g = g^T J, and since J^T = -J this
        says that J g is skew-symmetric: one linear condition, no inverse.
        """
        p, dim = self.p, self.dim
        jg = self.gram_times(g)
        return all(
            (jg[i][j] + jg[j][i]) % p == 0 for i in range(dim) for j in range(i, dim)
        )

    def flag_step(self, k: int) -> Subspace:
        return Subspace.from_vectors(
            [tuple(1 if j == c else 0 for j in range(self.dim)) for c in self.flag_order[:k]],
            self.dim,
            self.p,
        )

    def torus_twisted(self, values: Sequence[int]) -> Matrix:
        """Element diag(t_1..t_n, t_1..t_n) of the twisted diagonal torus."""
        if len(values) != self.n:
            raise ValueError(f"need {self.n} torus values")
        vals = [v % self.p for v in values] * 2
        if any(v == 0 for v in vals):
            raise ValueError("torus values must be nonzero")
        return tuple(
            tuple(vals[i] if i == j else 0 for j in range(self.dim)) for i in range(self.dim)
        )

    def lagrangian(self) -> Subspace:
        return self.flag_step(self.n)

    def in_lagrangian(self, v: Vector) -> bool:
        return all(c == 0 for c in v[self.n :])


def signed_rows(h: Matrix) -> tuple[tuple[int, int], ...]:
    """(column k_i, value eps_i) of the one nonzero entry in each row i of
    a signed permutation matrix h."""
    return tuple(next((j, c) for j, c in enumerate(row) if c) for row in h)


def signed_conjugate(rows: Sequence[tuple[int, int]], y: Matrix, p: int) -> Matrix:
    """h y h^{-1} for the signed permutation h with `signed_rows(h)` = rows.

    h^{-1} = h^T, so the (i, j) entry is eps_i eps_j y[k_i][k_j]: entries
    move and change sign, and no product is formed.
    """
    out = []
    for ki, ei in rows:
        row = y[ki]
        out.append(tuple([ei * ej * row[kj] % p for kj, ej in rows]))
    return tuple(out)


def identity_scaled(space: SymplecticSpace, c: int) -> Matrix:
    """The central element c * id."""
    dim, p = space.dim, space.p
    return tuple(
        tuple(c % p if i == j else 0 for j in range(dim)) for i in range(dim)
    )


def transvection(space: SymplecticSpace, u: Vector, c: int) -> Matrix:
    """The symplectic transvection w -> w + c <w, u> u."""
    p = space.p
    ju = apply(u, transpose(space.gram), p)  # (J u^T)_i = sum_k J[i][k] u[k]
    dim = space.dim
    return tuple(
        tuple((int(i == j) + c * ju[i] * u[j]) % p for j in range(dim)) for i in range(dim)
    )


def iotheta_set(space: SymplecticSpace, budget: int = 100_000) -> tuple[set, set]:
    """The twisted set two ways: fixed points of g -> theta(g)^{-1} versus
    the image of g -> g theta(g)^{-1}, by enumerating all of GL.

    Returns (solution, image).  Raises BudgetExceededError when the
    p^(dim^2) matrices exceed the budget.
    """
    p, dim = space.p, space.dim
    scan = p ** (dim * dim)
    if scan > budget:
        raise BudgetExceededError(
            f"twisted set scan of {dim}x{dim} matrices over GF({p}) needs {scan} "
            f"matrices, budget is {budget}"
        )
    solution = set()
    image = set()
    for g in gfmat.all_matrices(dim, p):
        if rank(g, p) < dim:
            continue
        if space.in_twisted_set(g):
            solution.add(g)
        image.add(mat_mul(g, space.theta_inv_of(g), p))
    return solution, image


def _perp(space: SymplecticSpace, sub: Subspace) -> Subspace:
    """The orthogonal complement of sub: the w with w . (u J) = 0 for u in sub."""
    if not sub.dim:
        return Subspace.full(space.dim, space.p)
    return gfmat.right_kernel(space.times_gram(sub.basis), space.p)


def isotropic_flags(
    space: SymplecticSpace, budget: int = 1_000_000
) -> list[tuple[Subspace, ...]]:
    """All complete isotropic flags L_1 < ... < L_n, depth first."""
    n, p, dim = space.n, space.p, space.dim
    out: list[tuple[Subspace, ...]] = []
    nodes = 0

    def extend(chain: list[Subspace]):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"flag enumeration exceeded {budget} nodes; completed {len(out)} "
                f"flags in {nodes - 1} nodes visited"
            )
        if len(chain) == n:
            out.append(tuple(chain))
            return
        current = chain[-1] if chain else Subspace.zero(dim, p)
        ambient = _perp(space, current)
        complement = Subspace.from_vectors(
            [current.reduce(b) for b in ambient.basis], dim, p
        )
        for line in complement.lines():
            bigger = current.sum(Subspace.from_vectors([line], dim, p))
            extend(chain + [bigger])

    extend([])
    return out


def type_c_poincare(n: int, q: int) -> int:
    """Sum of q^length over the hyperoctahedral group, as a product."""
    out = 1
    for i in range(1, n + 1):
        out *= sum(q**k for k in range(2 * i))
    return out


def _twisted_system(
    space: SymplecticSpace, s: Matrix, free: Sequence[tuple[int, int]]
) -> tuple[list[Vector], list[int]]:
    """The affine system rows . c = rhs whose solutions c make s u twisted,
    u = I + sum_k c_k E_{a_k b_k} over the positions `free` of U.

    J s u = J s + sum_k c_k (J s)[:, a_k] e_{b_k}, so `in_twisted_set`'s
    conditions (J y)_ij + (J y)_ji = 0 (i <= j) on y = s u are affine in c.
    """
    p, dim = space.p, space.dim
    js = space.gram_times(s)
    rows: list[Vector] = []
    rhs: list[int] = []
    for i in range(dim):
        for j in range(i, dim):
            rows.append(
                tuple((js[i][a] * (j == b) + js[j][a] * (i == b)) % p for a, b in free)
            )
            rhs.append(-(js[i][j] + js[j][i]) % p)
    return rows, rhs


def _exotic_key(bla: Bipartition) -> Bipartition:
    """The exotic orbit (mu; nu) of a twisted block keyed (mu cup mu; nu cup nu):
    every other part, as mu + nu = lam cup lam doubles mu and nu too.
    Raises RuntimeError on a block type that is not lam cup lam."""
    doubled = partition_sum(*bla)
    if doubled[1::2] != doubled[::2]:
        raise RuntimeError(f"block type {doubled} is not of the form lam cup lam")
    return (bla[0][::2], bla[1][::2])


def _doubled_key(key: Bipartition) -> Bipartition:
    """The block key (mu cup mu; nu cup nu) of the exotic key (mu; nu), which
    `_exotic_key` inverts."""
    return tuple(tuple(part for part in half for _ in range(2)) for half in key)


@functools.lru_cache(maxsize=None)
def _exotic_table(key: Bipartition) -> _Table:
    """{quotient key: lines, in Z[q]} of the exotic key (mu; nu), from the
    partitions alone: `flags._lines_in_q` of `flags._line_patterns(key, exotic=True)`.

    The normal form is x = diag(J, J^T), v = (v_W, 0) on V = W + W*, with
    (J, v_W) the type-A normal form of the key on W, in the notation of
    `flags._line_patterns` (e_(i,k), I_k, K, J_k = I_k + K, t, S_j(b) and
    h = lam_1, all inside W), and W* paired with W by the form.  x is
    self-adjoint, and K lies in the Lagrangian W.  A first step is a line
    L = <w> of ker x orthogonal to v, hence to K, as <w, v x^j> = <w x^j, v>.
    The pair induced on L^perp / L has the Krylov span (K + L) / L.  The
    lines are counted by `flags._nonempty_patterns` over A_a = V x^a cap ker x
    and D_d = K^perp x^d + K, closed by A_h = 0 and D_(h + 1) = 0; the line
    has a = max{k : w in A_k} and d = max{k : w in D_k}, and D_0 = K^perp.

    - Both chains split along W + W*.  K^perp = W + Ann(K), so
      D_d = J_d + Ann(K) x^d, and A_a = (I_a cap ker x) + (W* x^a cap ker x).
      dim(A_a cap D_d) is therefore type A's dim(I_a cap ker x cap J_d)
      plus F(a, d) = dim(W* x^a cap ker x cap Ann(K) x^d).
    - With f_(i,k) dual to e_(i,k), x sends f_(i,k) to f_(i,k+1), so
      W* x^a cap ker x is spanned by the top duals f_(i,lam_i) with lam_i > a.
      Ann(K) x^d = Ann(P_d) with P_d = {e in W : e x^d in K}.  P_d is ker x^d,
      which has no top coordinate of a block with lam_i > d, plus a lift of
      K cap I_d, that is of the v x^j with S_j(d) empty.  The lift of v x^j
      meets the top coordinate of block i, lam_i > d, exactly when
      nu_i = d - j, so distinct j meet disjoint top coordinates, and

          F(a, d) = #{i : lam_i > max(a, d)} - #{j < t : S_j(d) is empty and
                    some i has lam_i > max(a, d) and nu_i = d - j},

      which is 0 for d >= h.
    - x^k has rank dim V x^k - 2 [k <= a] on L^perp / L.  The perp of
      L^perp x^k is {y : y x^k in L}: ker x^k, plus z x^(a - k) for k <= a,
      with z x^a = w.  That z x^(a - k) lies in L^perp, since <z, z x^m> = 0
      for the alternating form, self-adjoint x and odd p, so w lies in
      L^perp x^k exactly when k <= a.  x therefore has the type lam' cup lam' there,
      lam' being type A's quotient type at a.
    - On L^perp / (K + L), dim(K + L) = t + [d < h], as w lies in K = D_h
      exactly when d = h.  The image of x^k is N_k = L^perp x^k + K + L, and
      N_k^perp = {y : y x^k in L} cap K^perp cap w^perp.  Let
      J'_k = V x^k + K, whose perp is ker x^k cap K^perp.  For k > a the
      y are ker x^k, and dim N_k = dim J'_k + [w not in J'_k].  For k <= a the y above already
      lie in w^perp, and dim N_k = dim J'_k - [w in K^perp x^k].
    - Two facts turn both into [k > d].  (1) For k <= a, w in D_k gives
      w in K^perp x^k: if w = y x^k + c with y in K^perp and c in K, then
      c lies in V x^k, as w does, and K cap V x^k = K cap W x^k lies in
      K^perp x^k, as W does in K^perp.
      (2) For k > a, w in J'_k gives w in D_k.  The W* part of w lies in
      W* x^k cap ker x.  The W part lies in J_k cap ker x but not in I_k,
      since w is not in V x^(a + 1).  By type A's decomposition of
      ker x cap J_k, some S_j(k) is non-empty with mu_i = j + 1 on it.  Then
      no i has lam_i > k and nu_i = k - j' for a j' with S_j'(k) empty:
      j' <= j would put S_j(k) inside S_j'(k), and j' > j would put that i
      into S_j(k) with mu_i > j + 1.  So every top dual with lam_i > k
      annihilates P_k, and w lies in D_k.  So, on L^perp / (K + L),

          rank x^k = dim J'_k - t - [d < h] - [k <= a] + [k > d],

      type A's rho formula at (a, b = d) on W plus the ranks of lam' on W*.
    - The quotient types are lam' cup lam' and rho' cup lam'.  With
      rho'_i = nu'_i + mu'_(i+1) (Achar-Henderson), rho' cup lam' is
      (lam'_1, rho'_1, lam'_2, rho'_2, ...), the rho of (mu' cup mu';
      nu' cup nu'), so the quotient's exotic key is type A's quotient class
      (mu'; nu') at (a, d).

    The rank computations on the normal form (`exotic_patterns` in
    `tests/oracles.py`) and the classification of every line are the oracles.
    """
    return _lines_in_q(_line_patterns(key, exotic=True))


def _exotic_blocks(
    space: SymplecticSpace, s: Matrix, x: Matrix, v: Vector
) -> tuple[tuple[int, ...], tuple[tuple[int, Bipartition], ...]]:
    """The order t of s = diag(t, t) and the blocks (eigenvalue, exotic key)
    of the pair (x, v), from one classification.  Raises ValueError at
    p = 2, then unless x is twisted, then unless s = diag(t, t); and
    NonSplitError when x has an eigenvalue outside GF(p)."""
    n, p = space.n, space.p
    if p == 2:
        raise ValueError("exotic fiber counts need an odd prime, got p=2")
    if not space.in_twisted_set(x):
        raise ValueError("x does not lie in the twisted set")
    order = tuple(s[i][i] for i in range(n))
    if s != space.torus_twisted(order):
        raise ValueError("s is not a twisted torus element diag(t, t)")
    blocks = MixedClassifier(x, p).invariant(v).blocks
    return order, tuple((a, _exotic_key(bla)) for a, bla in blocks)


def _exotic_fiber(
    blocks: tuple[tuple[int, Bipartition], ...], order: tuple[int, ...]
) -> tuple[int, ...]:
    """The exotic fiber count of these blocks in the eigenvalue order t, in
    Z[q]: `flags._fiber_polynomial` with `_exotic_table`."""
    return _fiber_polynomial(blocks, len(order), order, _exotic_table)


def exotic_fiber_count(space: SymplecticSpace, s: Matrix, x: Matrix, v: Vector) -> int:
    """Isotropic flags F with x in the conjugate of (sU)^{iota theta} and v in F_n.

    Twisted x is self-adjoint (J x = x^T J), so it keeps F_k^perp when it
    keeps F_k and acts on F_k^perp / F_(k+1)^perp as on F_(k+1) / F_k, as
    s = diag(t, t) does: n steps decide triangularity.  A first step is a
    line <w> of ker(x - t_1) orthogonal to v (F_n is Lagrangian), followed
    by a flag of the pair induced on <w>^perp / <w>.  So the count is
    `_exotic_fiber` of the blocks' exotic keys in the order t, at p; a
    non-split x has no stable flag.  The oracle is `stable_line_fiber_count`
    in `tests/oracles.py`.  Raises ValueError as `_exotic_blocks` does.
    """
    try:
        order, blocks = _exotic_blocks(space, s, x, v)
    except NonSplitError:
        return 0
    return evaluate(_exotic_fiber(blocks, order), space.p)


def sp_order(m: int, p: int) -> int:
    """|Sp_2m(GF(p))| = p^(m^2) times the product of p^(2i) - 1 over i <= m."""
    return p ** (m * m) * math.prod(p ** (2 * i) - 1 for i in range(1, m + 1))


def exotic_orbit_size(space: SymplecticSpace, x: Matrix, v: Vector) -> int:
    """Number of points of the Sp-orbit of the twisted pair (x, v).

    `MixedClassifier` separates the Sp-orbits of the pairs (x, v'), and the
    exotic keys of its blocks size the orbit (`key_orbit_size`).  Raises
    ValueError unless x is twisted, NonSplitError when x has an eigenvalue
    outside GF(p), and RuntimeError on a block type that is not lam cup lam
    or on an inexact division.
    """
    if not space.in_twisted_set(x):
        raise ValueError("x does not lie in the twisted set")
    blocks = MixedClassifier(x, space.p).invariant(v).blocks
    return key_orbit_size([_exotic_key(bla) for _, bla in blocks], space.p)


def key_orbit_size(keys: Sequence[Bipartition], p: int) -> int:
    """Number of points of the Sp_2n-orbit of the twisted pairs whose
    eigenvalue blocks have the exotic keys (mu_a; nu_a), n their total size.

    Twisted x is self-adjoint for the form (J x = x^T J), so its generalized
    eigenspaces V_a are nondegenerate and orthogonal, and on V_a the
    nilpotent x - a has a Jordan type lam cup lam, lam = mu_a + nu_a.  With
    n_a = |lam| and m_i the multiplicities of the parts of lam, the
    centralizer of x in Sp(V_a) has order

        |Z_a| = p^(n_a + 2 sum lam'_i^2 - sum (2 m_i^2 + m_i)) prod |Sp_2m_i|.

    The v' with (x, v') in the orbit number the product of the class
    polynomials c_beta_a(p) of the block keys beta_a = (mu_a cup mu_a;
    nu_a cup nu_a), so

        |O| = |Sp_2n| prod c_beta_a(p) / prod |Z_a|.

    An inexact division raises RuntimeError.
    """
    n = sum(total(key) for key in keys)
    numerator, denominator = sp_order(n, p), 1
    for key in keys:
        lam = partition_sum(*key)
        mults = Counter(lam).values()
        exponent = (
            sum(lam)
            + 2 * sum(c * c for c in conjugate(lam))
            - sum(2 * m * m + m for m in mults)
        )
        numerator *= evaluate(class_polynomial(_doubled_key(key)), p)
        denominator *= p**exponent * math.prod(sp_order(m, p) for m in mults)
    size, rem = divmod(numerator, denominator)
    if rem:
        raise RuntimeError(
            f"exotic orbit-size division is not exact: {numerator} / {denominator}"
        )
    return size


def key_orbit_degree(keys: Sequence[Bipartition]) -> int:
    """Degree in p of `key_orbit_size(keys, p)`, factor by factor: |Sp_2n|
    has degree 2n^2 + n, |Z_a| degree n_a + 2 sum lam'_i^2, as |Sp_2m| has
    degree 2m^2 + m, and c_beta_a degree deg c_beta_a."""
    n = sum(total(key) for key in keys)
    out = 2 * n * n + n
    for key in keys:
        lam = partition_sum(*key)
        out += (
            degree(class_polynomial(_doubled_key(key)))
            - sum(lam)
            - 2 * sum(c * c for c in conjugate(lam))
        )
    return out


def exotic_slice_count(
    space: SymplecticSpace, s: Matrix, u: Matrix, v: Vector
) -> tuple[int, int, int]:
    """Count of the orbit O of (s u, v) inside X x M_n, X = (sU)^{iota theta}.

    Returns (slice_count, orbit_size, fiber).  Call (x, v) adapted to an
    isotropic flag F when x lies in F's conjugate of X and v in F_n.  The
    pairs adapted to the standard flag are X x M_n, and Sp acts transitively
    on isotropic flags, so counting the pairs (z in O, F) with z adapted to
    F in two ways gives

        |O cap (X x M_n)| * type_c_poincare(n, p) = |O| * fiber(s u, v),

    fiber being `exotic_fiber_count`, which is constant on O.  |O| and the
    fiber come from one classification of (s u, v): `key_orbit_size` and
    `_exotic_fiber` of its exotic keys.  A nonzero remainder raises
    RuntimeError.  Raises ValueError unless v lies in the Lagrangian M_n,
    then as `_exotic_blocks` does, and then NonSplitError (a ValueError)
    when s u has an eigenvalue outside GF(p): such an s u lies in no
    conjugate of X.
    """
    p = space.p
    if not space.in_lagrangian(v):
        raise ValueError("v must lie in the Lagrangian coordinate span")
    order, blocks = _exotic_blocks(space, s, mat_mul(s, u, p), v)
    orbit_size = key_orbit_size([key for _, key in blocks], p)
    fiber = evaluate(_exotic_fiber(blocks, order), p)
    pairs = orbit_size * fiber
    flags = type_c_poincare(space.n, p)
    count, rem = divmod(pairs, flags)
    if rem:
        raise RuntimeError(
            f"double count is not exact: |O| * fiber = {pairs} is not divisible "
            f"by the {flags} isotropic flags"
        )
    return count, orbit_size, fiber


# ---------------------------------------------------------------------------
# Hyperoctahedral combinatorics


@dataclass(frozen=True)
class SignedPermutation:
    """Element of the hyperoctahedral group W_n as signed images of 1..n."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if sorted(abs(x) for x in self.image) != list(range(1, n + 1)):
            raise ValueError(f"not a signed permutation: {self.image}")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        """Signed image of i; negative arguments flip the sign."""
        if i < 0:
            return -self.image[-i - 1]
        return self.image[i - 1]

    def inverse(self) -> "SignedPermutation":
        out = [0] * self.n
        for i, w in enumerate(self.image, start=1):
            if w > 0:
                out[w - 1] = i
            else:
                out[-w - 1] = -i
        return SignedPermutation(tuple(out))

    def apply_root(self, root: tuple[int, ...]) -> tuple[int, ...]:
        """Push a root vector (coefficients of eps_1..eps_n) through w."""
        out = [0] * self.n
        for i, coeff in enumerate(root, start=1):
            if coeff:
                w = self(i)
                out[abs(w) - 1] += coeff * (1 if w > 0 else -1)
        return tuple(out)

    def matrix(self, space: SymplecticSpace) -> Matrix:
        """Symplectic signed-permutation matrix: e_i -> e_{w(i)} or f_{|w(i)|},
        f_i -> f_{w(i)} or -e_{|w(i)|}.  Built once per (w, space)."""
        return _signed_permutation_matrix(self.image, space)


@functools.cache
def _signed_permutation_matrix(image: tuple[int, ...], space: SymplecticSpace) -> Matrix:
    n, p = space.n, space.p
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i, w in enumerate(image):
        if w > 0:
            rows[i][w - 1] = 1
            rows[n + i][n + w - 1] = 1
        else:
            rows[i][n - w - 1] = 1
            rows[n + i][-w - 1] = (-1) % p
    h = tuple(tuple(r) for r in rows)
    assert preserves_form(space, h)
    return h


def preserves_form(space: SymplecticSpace, h: Matrix) -> bool:
    """`space.is_symplectic(h)` for a signed permutation matrix h: h^{-1} =
    h^T, so h J h^T = J says that `signed_conjugate` leaves J fixed, which
    moves entries and forms no product."""
    return signed_conjugate(signed_rows(h), space.gram, space.p) == space.gram


def signed_permutations(n: int) -> Iterator[SignedPermutation]:
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPermutation(tuple(p * s for p, s in zip(perm, signs)))


def positive_roots_c(n: int) -> list[tuple[int, ...]]:
    """Positive roots of type C_n: eps_i +- eps_j (i < j) and 2 eps_i."""
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            for sign in (1, -1):
                r = [0] * n
                r[i] = 1
                r[j] = sign
                roots.append(tuple(r))
    for i in range(n):
        r = [0] * n
        r[i] = 2
        roots.append(tuple(r))
    return roots


def is_positive_root(root: tuple[int, ...]) -> bool:
    for c in root:
        if c:
            return c > 0
    raise ValueError("zero vector is not a root")


def length(w: SignedPermutation) -> int:
    return sum(
        1 for r in positive_roots_c(w.n) if not is_positive_root(w.apply_root(r))
    )


def b_stat(w: SignedPermutation) -> int:
    """Long positive roots sent to positive roots by w^{-1}."""
    winv = w.inverse()
    count = 0
    for i in range(w.n):
        root = tuple(2 if k == i else 0 for k in range(w.n))
        if is_positive_root(winv.apply_root(root)):
            count += 1
    return count


def lagrangian_meet_dim(space: SymplecticSpace, w: SignedPermutation) -> int:
    """dim(M_n meet M_n w) by exact linear algebra."""
    m = space.lagrangian()
    moved = Subspace.from_vectors(
        [apply(b, w.matrix(space), space.p) for b in m.basis], space.dim, space.p
    )
    joint = rank(tuple(m.basis + moved.basis), space.p)
    return m.dim + moved.dim - joint


def z_variety_count(space: SymplecticSpace, s: Matrix) -> int:
    """Points of the double-flag variety attached to s, summed over W_n.

    A point is an ordered pair of isotropic flags F, F' with an x in both
    conjugates of X = (sU)^{iota-theta} and a v in both Lagrangian steps.
    Conjugation by the flag Borel of Sp maps X onto itself: its torus
    commutes with s, U is normal in the Borel, and Sp commutes with theta.
    So the count of a pair depends only on its relative position w in W_n.
    By the Bruhat decomposition the pairs in position w number
    type_c_poincare(n, p) * p^{l(w)}, and the pair (F_0, F_0 w) counts
    |X meet w^{-1} X w| * p^{dim(M_n meet M_n w)}.

    With h the matrix of w, h s u h^{-1} = (h s h^{-1}) (h u h^{-1}) is a
    diagonal times a unipotent, so it lies in s U only when h s h^{-1} = s
    and h u h^{-1} is in U.  X meet w^{-1} X w is therefore empty unless h
    commutes with s, and otherwise is the twisted part of s times the
    pattern subgroup U meet h^{-1} U h on `_meet_positions(space, w^{-1})`:
    p^(|free| - rank) points when `_twisted_system` on those positions is
    consistent, none when it is not.  Raises ValueError unless s is an
    invertible diagonal matrix.
    """
    p, dim = space.p, space.dim
    if any(s[i][j] for i in range(dim) for j in range(dim) if i != j) or not all(
        s[i][i] for i in range(dim)
    ):
        raise ValueError("s is not an invertible diagonal matrix")
    total = 0
    for w in signed_permutations(space.n):
        if signed_conjugate(signed_rows(w.matrix(space)), s, p) != s:
            continue
        free = _meet_positions(space, w.inverse())
        rows, rhs = _twisted_system(space, s, free)
        _, rk, pivots = gfmat.rref(tuple(row + (b,) for row, b in zip(rows, rhs)), p)
        if len(free) in pivots:  # a pivot in the right-hand side: inconsistent
            continue
        total += p ** (length(w) + len(free) - rk + lagrangian_meet_dim(space, w))
    return type_c_poincare(space.n, p) * total


@dataclass(frozen=True)
class RootIdentityReport:
    image: tuple[int, ...]
    n: int
    b_w: int
    meet_dims: tuple[int, ...]
    combinatorial_ok: bool
    group_checks: tuple[dict, ...]
    ok: bool

    def to_json(self) -> dict:
        return {
            "w": list(self.image),
            "n": self.n,
            "b_w": self.b_w,
            "meet_dims": list(self.meet_dims),
            "combinatorial_ok": self.combinatorial_ok,
            "group_checks": list(self.group_checks),
            "ok": self.ok,
        }


def _meet_positions(space: SymplecticSpace, w: SignedPermutation) -> list[tuple[int, int]]:
    """The free positions of the pattern subgroup U meet w U w^{-1}, U the
    flag unipotents.

    With h the matrix of w and k_a the column of the one nonzero entry in
    row a of h, h^{-1} E_ab h = h^T E_ab h is +-E at (k_a, k_b).  So
    u = I + sum c_ab E_ab has h^{-1} u h in U exactly when c_ab = 0
    wherever k_a does not come after k_b in the flag order.
    """
    order = space.flag_order
    place = {c: i for i, c in enumerate(order)}
    cols = [k for k, _ in signed_rows(w.matrix(space))]
    return [
        (a, b) for a, b in gfmat.unitriangular_positions(order) if place[cols[a]] > place[cols[b]]
    ]


def _meet_rows(space: SymplecticSpace, w: SignedPermutation) -> list[list[Vector]]:
    """The row sets of A = U meet w U w^{-1}: row a of an element of A is
    e_a plus any values at row a's positions in `_meet_positions`.  A
    pattern subgroup's rows vary independently, so A is the product of
    these sets."""
    dim, p = space.dim, space.p
    columns: list[list[int]] = [[] for _ in range(dim)]
    for a, b in _meet_positions(space, w):
        columns[a].append(b)
    out = []
    for a, cols in enumerate(columns):
        rows = []
        for values in gfmat.all_vectors(len(cols), p):
            row = [0] * dim
            row[a] = 1
            for b, c in zip(cols, values):
                row[b] = c
            rows.append(tuple(row))
        out.append(rows)
    return out


def _root_group_counts(space: SymplecticSpace, w: SignedPermutation) -> tuple[int, int, int]:
    """(|A|, |A^theta|, |{u theta(u)^{-1}}|) for A = U meet w U w^{-1}.

    u theta(u)^{-1} = u J u^T J^{-1}, so it is y = G(u) J^{-1} with
    G(u) = u J u^T, and y -> y J is a bijection: the images number the
    distinct G(u), and u is theta-fixed exactly when G(u) = J.  G(u) is
    skew with a zero diagonal (x J x^T = 0 for every row x), so its entries
    above the diagonal determine it, and entry (i, j) depends only on rows
    i and j of u.  A is the product of its row sets (`_meet_rows`), so each
    pair i < j gets a table T_ij[a][b] = (r_a J) r_b of the a-th row choice
    for row i against the b-th for row j, and G(u) is one read per table.
    Every u of A is visited, once per tuple of row choices, so |A| is
    counted.
    """
    p, dim = space.p, space.dim
    rows = _meet_rows(space, w)
    times = [space.times_gram(choices) for choices in rows]
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    tables = [
        (i, j, [[sum(map(operator.mul, x, y)) % p for y in rows[j]] for x in times[i]])
        for i, j in pairs
    ]
    j_upper = tuple(space.gram[i][j] for i, j in pairs)
    size = fixed = 0
    image = set()
    for choice in itertools.product(*(range(len(choices)) for choices in rows)):
        gram = tuple([table[choice[i]][choice[j]] for i, j, table in tables])
        size += 1
        fixed += gram == j_upper
        image.add(gram)
    return size, fixed, len(image)


# primes of the intersection dimensions, and of the group-level exponents
# checked for rank up to ROOT_GROUP_MAX_N
ROOT_GROUP_PRIMES = (2, 3)
ROOT_GROUP_MAX_N = 2


def root_identity_check(w: SignedPermutation) -> RootIdentityReport:
    """The long-root count of w against the Lagrangian intersection dimension.

    b_w is computed from the root system; the intersection dimension by
    linear algebra over each prime.  For small n the group-level exponents
    are verified as well: with A = U meet wUw^{-1} inside GL_{2n},
    |A| = p^D, |A^theta| = p^d, |{u theta(u)^{-1}}| = p^{D-d}, and the
    bookkeeping d = (D - d) + b_w must hold.  The three counts come from
    `_root_group_counts`, one skew Gram matrix u J u^T per u in A, read
    entry by entry from tables of its row pairs.
    """
    n = w.n
    bw = b_stat(w)
    meets = []
    for p in ROOT_GROUP_PRIMES:
        meets.append(lagrangian_meet_dim(SymplecticSpace(n, p), w))
    combinatorial_ok = all(m == bw for m in meets)
    group_checks = []
    overall = combinatorial_ok
    if n <= ROOT_GROUP_MAX_N:
        for p in ROOT_GROUP_PRIMES:
            size, fixed, image = _root_group_counts(SymplecticSpace(n, p), w)
            big_d = _exact_log(size, p)
            small_d = _exact_log(fixed, p)
            image_exp = _exact_log(image, p)
            ok = (
                big_d is not None
                and small_d is not None
                and image_exp is not None
                and image_exp == big_d - small_d
                and small_d == (big_d - small_d) + bw
            )
            overall = overall and ok
            group_checks.append(
                {
                    "p": p,
                    "dim_total": big_d,
                    "dim_fixed": small_d,
                    "dim_image": image_exp,
                    "ok": ok,
                }
            )
    return RootIdentityReport(
        image=w.image,
        n=n,
        b_w=bw,
        meet_dims=tuple(meets),
        combinatorial_ok=combinatorial_ok,
        group_checks=tuple(group_checks),
        ok=overall,
    )


def _exact_log(value: int, p: int) -> Optional[int]:
    """k with p^k = value, or None."""
    if value <= 0:
        return None
    k = 0
    while value % p == 0:
        value //= p
        k += 1
    return k if value == 1 else None
