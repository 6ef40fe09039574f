"""The symplectic side: twisted conjugation, isotropic flags, orbit checks.

V = GF(p)^{2n} carries the standard symplectic form in the basis
e_1..e_n, f_1..f_n.  The involution theta(g) = J (g^T)^{-1} J^{-1} fixes
exactly the symplectic group, and the twisted set {g : theta(g) = g^{-1}}
models the quotient of GL_{2n} by it.  Pairs (x, v) with x in the twisted
set are acted on by Sp_{2n}(F_p); orbits are explored by breadth-first
closure under symplectic transvections, with no invariant shortcuts.

The flag-stabilizing Borel subgroup is taken in the theta-stable flag
order e_1, ..., e_n, f_n, ..., f_1; with the row-vector action its
unipotent radical is lower unitriangular in that order.
"""

from __future__ import annotations

import itertools
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
    identity,
    mat_inv,
    mat_mul,
    rank,
    transpose,
)


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
        return tuple(next((j, c) for j, c in enumerate(row) if c) for row in self.gram)

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
        """theta(g)^{-1} = J g^T J^{-1}, avoiding one inversion.

        J is a signed permutation with J^{-1} = J^T, so with J[i][k_i] =
        eps_i the (i, j) entry is eps_i eps_j g[k_j][k_i]: entries move and
        change sign, and no product is formed.  For symplectic g this is g^{-1}.
        """
        p, entries = self.p, self.gram_entries
        return tuple(
            tuple((ei * ej * g[kj][ki]) % p for kj, ej in entries) for ki, ei in entries
        )

    def is_symplectic(self, g: Matrix) -> bool:
        return mat_mul(mat_mul(g, self.gram, self.p), transpose(g), self.p) == self.gram

    def in_twisted_set(self, g: Matrix) -> bool:
        """Whether the invertible g satisfies theta(g) = g^{-1}.

        theta(g) g = I rearranges to J g = g^T J, and since J^T = -J this
        says that J g is skew-symmetric: one linear condition, no inverse.
        """
        p, dim = self.p, self.dim
        jg = mat_mul(self.gram, g, p)
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


def identity_scaled(space: SymplecticSpace, c: int) -> Matrix:
    """The central element c * id."""
    dim, p = space.dim, space.p
    return tuple(
        tuple(c % p if i == j else 0 for j in range(dim)) for i in range(dim)
    )


def flag_unipotent_elements(space: SymplecticSpace) -> Iterator[Matrix]:
    """All elements of the unipotent radical of the flag-stabilizing Borel.

    p^{n(2n-1)} of them; the library's twisted cosets and pattern subgroups
    avoid this walk, which stays as the tests' oracle.
    """
    return gfmat.unitriangular_elements(space.flag_order, space.p)


def in_flag_borel_coset(space: SymplecticSpace, y: Matrix, s: Matrix) -> bool:
    """Whether y lies in s U for the flag Borel, i.e. is flag-triangular
    with the diagonal pattern of the diagonal matrix s."""
    order = space.flag_order
    dim = space.dim
    for i in range(dim):
        oi = order[i]
        if y[oi][oi] != s[oi][oi]:
            return False
        for j in range(i + 1, dim):
            if y[oi][order[j]]:
                return False
    return True


def transvection(space: SymplecticSpace, u: Vector, c: int) -> Matrix:
    """The symplectic transvection w -> w + c <w, u> u."""
    p = space.p
    ju = apply(u, transpose(space.gram), p)  # (J u^T)_i = sum_k J[i][k] u[k]
    dim = space.dim
    return tuple(
        tuple((int(i == j) + c * ju[i] * u[j]) % p for j in range(dim)) for i in range(dim)
    )


def _generator_data(space: SymplecticSpace) -> list[tuple[Vector, int]]:
    """(direction u, coefficient c) of each transvection generator, in order."""
    n, p = space.n, space.p
    dirs: list[Vector] = []
    for i in range(n):
        dirs.append(tuple(1 if k == i else 0 for k in range(2 * n)))
        dirs.append(tuple(1 if k == n + i else 0 for k in range(2 * n)))
    for i in range(n - 1):
        dirs.append(tuple(1 if k in (i + 1, n + i) else 0 for k in range(2 * n)))
    return [(u, c) for u in dirs for c in (1, p - 1)]


def sp_generators(space: SymplecticSpace) -> list[Matrix]:
    """Transvection generators of Sp_{2n}(F_p).

    Directions e_i, f_i and the cross terms e_{i+1} + f_i connecting
    consecutive hyperbolic planes; coefficients +-1.  Generation is
    exercised directly in the tests.
    """
    return [transvection(space, u, c) for u, c in _generator_data(space)]


def _encode(x: Matrix, v: Vector) -> bytes:
    return bytes(c for row in x for c in row) + bytes(v)


def _transvect(state: bytes, d: int, sa, sb, c: int, p: int) -> bytes:
    """The encoded pair (g^-1 x g, v g) for g = I + c a b, a rank-one update.

    `sa` and `sb` list the nonzero (index, entry) of the column a and the
    row b.  Since b a = 0, g^-1 = I - c a b and
    g^-1 x g = x + c (x a) b - c a (b x) - c^2 (b x a) a b, v g = v + c (v a) b,
    which changes only the columns of x in supp(b) and its rows in supp(a).
    """
    dd = d * d
    out = list(state)
    xa = [0] * d
    for k, ak in sa:
        xa = [t + ak * e for t, e in zip(xa, state[k:dd:d])]
    bx = [0] * d
    for k, bk in sb:
        bx = [t + bk * e for t, e in zip(bx, state[k * d : (k + 1) * d])]
    bxa = sum(bk * xa[k] for k, bk in sb)
    va = sum(ak * state[dd + k] for k, ak in sa)
    for j, bj in sb:
        bx[j] += c * bxa * bj  # folds the c^2 term into the row update
        f = c * bj
        out[j:dd:d] = [(o + f * e) % p for o, e in zip(out[j:dd:d], xa)]
        out[dd + j] = (out[dd + j] + f * va) % p
    for i, ai in sa:
        f = c * ai
        row = slice(i * d, (i + 1) * d)
        out[row] = [(o - f * e) % p for o, e in zip(out[row], bx)]
    return bytes(out)


def h_orbit(
    space: SymplecticSpace, x: Matrix, v: Vector, budget: int = 500_000
) -> frozenset[bytes]:
    """Closure of {(x, v)} under (x, v) -> (g^-1 x g, v g) over generators,
    as the set of `_encode`d pairs.

    The generator w -> w + c <w, u> u is g = I + c a b with a = J u^T and
    b = u, and each step is applied to the encoded state by `_transvect`.
    """
    p, d = space.p, space.dim
    if space.p >= 256:
        raise ValueError("state encoding assumes p < 256")
    steps = []
    for u, c in _generator_data(space):
        a = apply(u, transpose(space.gram), p)
        sa = [(i, ai) for i, ai in enumerate(a) if ai]
        sb = [(j, bj) for j, bj in enumerate(u) if bj]
        steps.append((sa, sb, c))
    start = _encode(x, v)
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        fresh = []
        for state in frontier:
            for sa, sb, c in steps:
                key = _transvect(state, d, sa, sb, c, p)
                if key not in seen:
                    if len(seen) >= budget:
                        raise BudgetExceededError(
                            f"orbit exceeded budget of {budget} states; reached "
                            f"{len(seen)} states while building BFS depth {depth}"
                        )
                    seen.add(key)
                    fresh.append(key)
        frontier = fresh
    return frozenset(seen)


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


def isotropic_flags(
    space: SymplecticSpace, budget: int = 1_000_000
) -> list[tuple[Subspace, ...]]:
    """All complete isotropic flags L_1 < ... < L_n, depth first."""
    n, p, dim = space.n, space.p, space.dim
    gram = space.gram
    out: list[tuple[Subspace, ...]] = []
    nodes = 0

    def perp(sub: Subspace) -> Subspace:
        if sub.dim == 0:
            return Subspace.full(dim, p)
        return gfmat.right_kernel(mat_mul(sub.basis, gram, p), p)

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
        ambient = perp(current)
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


def _solve_affine(rows: list[Vector], rhs: list[int], dim: int, p: int) -> Vector:
    """One solution c of the system rows . c = rhs; raises if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, _, pivots = gfmat.rref(tuple(tuple(r) for r in aug), p)
    if dim in pivots:
        raise ValueError("inconsistent linear system")
    c = [0] * dim
    for row, pc in zip(reduced, pivots):
        c[pc] = row[dim]
    return tuple(c)


def symplectic_transition(space: SymplecticSpace, flag: Sequence[Subspace]) -> Matrix:
    """An element of Sp mapping the standard isotropic flag onto the given one.

    Rows 1..n are a flag-adapted basis b_i of the isotropic steps; rows
    n+1..2n are a dual family c_i with <b_i, c_j> = delta_ij and <c_i, c_j> = 0,
    found by solving the pairing equations step by step.  The library no
    longer needs it; it stays for the tests' flag-by-flag fiber oracle.
    """
    n, p, dim = space.n, space.p, space.dim
    gram = space.gram
    bs: list[Vector] = []
    prev = Subspace.zero(dim, p)
    for step in flag:
        pick = next(b for b in step.basis if not prev.contains(b))
        bs.append(pick)
        prev = step
    cs: list[Vector] = []
    for j in range(n):
        rows = [apply(b, gram, p) for b in bs]
        rhs = [1 if i == j else 0 for i in range(n)]
        for built in cs:
            rows.append(apply(built, gram, p))
            rhs.append(0)
        cs.append(_solve_affine(rows, rhs, dim, p))
    h = tuple(bs + cs)
    if not space.is_symplectic(h):
        raise RuntimeError("transition completion failed the symplectic check")
    return h


def twisted_coset_set(space: SymplecticSpace, s: Matrix) -> list[Matrix]:
    """The intersection (sU)^{iota theta} of the coset s U with the twisted
    set, by a linear solve.

    Write u = I + sum_k c_k E_{a_k b_k} over the free positions of U.  Then
    J s u = J s + sum_k c_k (J s)[:, a_k] e_{b_k}, so `in_twisted_set`'s
    conditions (J y)_ij + (J y)_ji = 0 (i <= j) on y = s u are affine in c.
    Their solutions are one solution plus the kernel of the system, and
    s u is listed for each of them; an inconsistent system gives [].
    """
    p, dim = space.p, space.dim
    js = mat_mul(space.gram, s, p)
    free = gfmat.unitriangular_positions(space.flag_order)
    rows: list[Vector] = []
    rhs: list[int] = []
    for i in range(dim):
        for j in range(i, dim):
            rows.append(
                tuple((js[i][a] * (j == b) + js[j][a] * (i == b)) % p for a, b in free)
            )
            rhs.append(-(js[i][j] + js[j][i]) % p)
    try:
        base = _solve_affine(rows, rhs, len(free), p)
    except ValueError:
        return []
    kernel = gfmat.right_kernel(tuple(rows), p).basis
    out = []
    for t in gfmat.all_vectors(len(kernel), p):
        u = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for k, (a, b) in enumerate(free):
            u[a][b] = (base[k] + sum(tk * vec[k] for tk, vec in zip(t, kernel))) % p
        out.append(mat_mul(s, tuple(tuple(r) for r in u), p))
    return out


def exotic_fiber_count(space: SymplecticSpace, s: Matrix, x: Matrix, v: Vector) -> int:
    """Isotropic flags F with x in the conjugate of (sU)^{iota theta} and v in F_n.

    Depth first over stable isotropic lines: F_(k+1) = F_k + <w> qualifies
    exactly when w is in F_k^perp and w (x - s_k) is in F_k, s_k the k-th
    diagonal entry of s in flag order; one kernel per node.  n steps decide
    triangularity in all 2n: twisted x is self-adjoint (J x = x^T J), so it
    keeps F_k^perp when it keeps F_k and acts on F_k^perp / F_(k+1)^perp as
    on F_(k+1) / F_k, as s = diag(t, t) does in flag order.  F_n is
    Lagrangian, so v is in F_n exactly when every w is orthogonal to v: the
    row v J.  Raises ValueError unless x is twisted and s = diag(t, t).
    """
    n, p, dim = space.n, space.p, space.dim
    if not space.in_twisted_set(x):
        raise ValueError("x does not lie in the twisted set")
    diag = [s[i][i] for i in range(n)]
    if s != space.torus_twisted(diag):
        raise ValueError("s is not a twisted torus element diag(t, t)")
    v_row = (apply(v, space.gram, p),)

    def count(current: Subspace) -> int:
        k = current.dim
        # w (x - s_k) lies in F_k exactly when w annihilates the columns of
        # the residues mod F_k of the rows of x - s_k
        residues = [
            current.reduce(r[:i] + (r[i] - diag[k],) + r[i + 1 :]) for i, r in enumerate(x)
        ]
        rows = transpose(residues) + mat_mul(current.basis, space.gram, p) + v_row
        allowed = gfmat.right_kernel(rows, p)
        if k == n - 1:  # the last step's lines, counted in closed form
            return (p ** (allowed.dim - k) - 1) // (p - 1)
        fresh = Subspace.from_vectors([current.reduce(b) for b in allowed.basis], dim, p)
        return sum(
            count(Subspace.from_vectors(current.basis + (w,), dim, p)) for w in fresh.lines()
        )

    return count(Subspace.zero(dim, p))


def exotic_slice_count(
    space: SymplecticSpace, s: Matrix, u: Matrix, v: Vector
) -> tuple[int, int]:
    """Count of the orbit O of (s u, v) inside X x M_n, X = (sU)^{iota theta}.

    Returns (slice_count, orbit_size).  Call (x, v) adapted to an isotropic
    flag F when x lies in F's conjugate of X and v in F_n.  The pairs
    adapted to the standard flag are X x M_n, and Sp acts transitively on
    isotropic flags, so counting the pairs (z in O, F) with z adapted to F
    in two ways gives

        |O cap (X x M_n)| * type_c_poincare(n, p) = |O| * fiber(s u, v),

    fiber being `exotic_fiber_count`, which is constant on O.  |O| is the
    size of the `h_orbit` closure; a nonzero remainder raises RuntimeError.
    Raises ValueError unless s u is twisted, s = diag(t, t) and v lies in
    the Lagrangian M_n.
    """
    p = space.p
    if not space.in_lagrangian(v):
        raise ValueError("v must lie in the Lagrangian coordinate span")
    x0 = mat_mul(s, u, p)
    fiber = exotic_fiber_count(space, s, x0, v)
    orbit_size = len(h_orbit(space, x0, v))
    pairs = orbit_size * fiber
    flags = type_c_poincare(space.n, p)
    count, rem = divmod(pairs, flags)
    if rem:
        raise RuntimeError(
            f"double count is not exact: |O| * fiber = {pairs} is not divisible "
            f"by the {flags} isotropic flags"
        )
    return count, orbit_size


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
        f_i -> f_{w(i)} or -e_{|w(i)|}."""
        n, p = space.n, space.p
        rows = [[0] * (2 * n) for _ in range(2 * n)]
        for i, w in enumerate(self.image):
            if w > 0:
                rows[i][w - 1] = 1
                rows[n + i][n + w - 1] = 1
            else:
                rows[i][n - w - 1] = 1
                rows[n + i][-w - 1] = (-1) % p
        h = tuple(tuple(r) for r in rows)
        assert space.is_symplectic(h)
        return h


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
    """
    p = space.p
    base = twisted_coset_set(space, s)
    members = frozenset(base)
    total = 0
    for w in signed_permutations(space.n):
        h = w.matrix(space)
        hinv = space.theta_inv_of(h)
        shared = sum(1 for y in base if mat_mul(mat_mul(h, y, p), hinv, p) in members)
        total += p ** length(w) * shared * p ** lagrangian_meet_dim(space, w)
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


def unipotent_meet(space: SymplecticSpace, w: SignedPermutation) -> Iterator[Matrix]:
    """The elements of A = U meet w U w^{-1} inside GL_{2n}, U the flag unipotents.

    Conjugation by the signed permutation matrix of w sends each E_ab to
    +-E_a'b', so u = I + sum c_ab E_ab has w^{-1} u w in U exactly when
    c_ab = 0 wherever w^{-1} (I + E_ab) w falls outside U.  A is the
    pattern subgroup on the remaining positions, enumerated by
    `gfmat.unitriangular_elements`.
    """
    p, dim = space.p, space.dim
    wmat = w.matrix(space)
    winv = space.theta_inv_of(wmat)
    unit = identity(dim)
    free = []
    for a, b in gfmat.unitriangular_positions(space.flag_order):
        e_ab = tuple(
            tuple(int(i == j or (i, j) == (a, b)) for j in range(dim)) for i in range(dim)
        )
        if in_flag_borel_coset(space, mat_mul(mat_mul(winv, e_ab, p), wmat, p), unit):
            free.append((a, b))
    return gfmat.unitriangular_elements(space.flag_order, p, free)


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
    bookkeeping d = (D - d) + b_w must hold.  Each u in A gives
    y = u theta(u)^{-1} once, and u is theta-fixed exactly when y = I.
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
            space = SymplecticSpace(n, p)
            unit = identity(space.dim)
            size = fixed = 0
            image = set()
            for u in unipotent_meet(space, w):
                y = mat_mul(u, space.theta_inv_of(u), p)
                size += 1
                fixed += y == unit
                image.add(y)
            big_d = _exact_log(size, p)
            small_d = _exact_log(fixed, p)
            image_exp = _exact_log(len(image), p)
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
