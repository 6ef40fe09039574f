"""Slow oracles that no library path calls.

Each one checks a fast path of ``nilorbit`` from an independent
definition: stabilizers by enumeration of the solution space of the
stabilizer equations, vector classes by classifying every line,
type-A and exotic line patterns and commutant spans by GF(p) linear
algebra on the normal forms, orbit equality through the invariant
itself, stable flags and stable isotropic flags by depth-first
enumeration, the twisted coset
(sU)^{iota theta} and the double-flag count by listing the coset, the
root-group counts by forming u theta(u)^{-1}, flag unipotents and their
pattern subgroups by listing the free entries, and symplectic orbits by
breadth-first closure under transvections.  The matrices of x on a
stable subspace and its quotient serve the rank oracles.  The group
orders, Gaussian factorials and orbit sizes at a prime are the integer
forms of the library's polynomials in Z[q], each divided at the prime.
"""

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from nilorbit import gfmat
from nilorbit.gfmat import (
    BudgetExceededError,
    Matrix,
    Subspace,
    Vector,
    all_vectors,
    apply,
    identity,
    jordan_matrix,
    mat_mul,
    mat_sub,
    partition_from_ranks,
    power_images,
    rank,
    right_kernel,
    scal_mul,
    transpose,
)
from nilorbit.counting import evaluate
from nilorbit.flags import _nonempty_patterns
from nilorbit.pairs import (
    EnhancedPair,
    MixedInvariant,
    _classify_nilpotent,
    _nilpotent_profile,
    bipartition_from_types,
    class_polynomial,
    classify,
    commutant,
    krylov_basis,
    mixed_invariant,
    orbit_representative,
)
from nilorbit.partitions import (
    Bipartition,
    Partition,
    conjugate,
    enumerate_bipartitions,
    partition_sum,
    total,
)
from nilorbit.symplectic import (
    SignedPermutation,
    SymplecticSpace,
    _doubled_key,
    _exotic_key,
    _meet_rows,
    _perp,
    _twisted_system,
    lagrangian_meet_dim,
    length,
    signed_conjugate,
    signed_permutations,
    signed_rows,
    transvection,
)


def induced_maps(x: Matrix, w: Subspace, p: int) -> tuple[Matrix, Matrix]:
    """Matrices of x on the x-stable subspace W and on the quotient V/W.

    The restriction is expressed in W's canonical basis.  The quotient
    uses the non-pivot standard coordinates of W's RREF basis, in
    increasing order, as coordinates on V/W.
    """
    n = len(x)
    if w.ambient != n:
        raise ValueError("ambient dimension mismatch")
    try:
        restriction = tuple(w.coords(apply(b, x, p)) for b in w.basis)
    except ValueError:
        raise ValueError("subspace is not stable under x") from None
    complement = [c for c in range(n) if c not in w.pivots]
    quotient = []
    for c in complement:
        e = tuple(1 if j == c else 0 for j in range(n))
        image = w.reduce(apply(e, x, p))
        quotient.append(tuple(image[j] for j in complement))
    return restriction, tuple(quotient)


def gl_order(n: int, p: int) -> int:
    """|GL_n(GF(p))|, the product of p^n - p^i over i < n."""
    q = p**n
    return math.prod(q - p**i for i in range(n))


def sp_order(m: int, p: int) -> int:
    """|Sp_2m(GF(p))| = p^(m^2) times the product of p^(2i) - 1 over i <= m."""
    return p ** (m * m) * math.prod(p ** (2 * i) - 1 for i in range(1, m + 1))


def gaussian_factorial(m: int, q: int) -> int:
    """[m]_q! at q, the product of 1 + q + ... + q^(k-1) over k <= m."""
    return math.prod(sum(q**i for i in range(k)) for k in range(1, m + 1))


def type_c_poincare(n: int, q: int) -> int:
    """P_C at q, the product of 1 + q + ... + q^(2i-1) over i <= n."""
    return math.prod(sum(q**k for k in range(2 * i)) for i in range(1, n + 1))


def centralizer_order(lam: Partition, p: int) -> int:
    """|Z(J_lam)| in GL_n(GF(p)): p^(sum lam'_i^2 - sum m_i^2) times the
    product of |GL_{m_i}|, m_i the part multiplicities (Macdonald, Ch. II)."""
    mults = Counter(lam).values()
    exponent = sum(c * c for c in conjugate(lam)) - sum(m * m for m in mults)
    return p**exponent * math.prod(gl_order(m, p) for m in mults)


def _divide(numerator: int, denominator: int) -> int:
    size, rem = divmod(numerator, denominator)
    if rem:
        raise AssertionError(f"division at a prime is not exact: {numerator} / {denominator}")
    return size


def prime_orbit_size(inv: MixedInvariant, p: int) -> int:
    """|GL_n| prod c_beta_a(p) / prod |Z(J_lam_a)|, divided at p."""
    numerator, denominator = gl_order(inv.total, p), 1
    for _, bla in inv.blocks:
        numerator *= evaluate(class_polynomial(bla), p)
        denominator *= centralizer_order(partition_sum(*bla), p)
    return _divide(numerator, denominator)


def prime_key_orbit_size(keys: Sequence[Bipartition], p: int) -> int:
    """|Sp_2n| prod c_beta_a(p) / prod |Z_a| of exotic keys, divided at p, with
    |Z_a| = p^(n_a + 2 sum lam'_i^2 - sum (2 m_i^2 + m_i)) prod |Sp_2m_i|."""
    numerator, denominator = sp_order(sum(total(key) for key in keys), p), 1
    for key in keys:
        lam = partition_sum(*key)
        mults = Counter(lam).values()
        exponent = (
            sum(lam) + 2 * sum(c * c for c in conjugate(lam)) - sum(2 * m * m + m for m in mults)
        )
        numerator *= evaluate(class_polynomial(_doubled_key(key)), p)
        denominator *= p**exponent * math.prod(sp_order(m, p) for m in mults)
    return _divide(numerator, denominator)


def doubled_normal_form(key: Bipartition, p: int) -> tuple[Matrix, Vector]:
    """The twisted nilpotent pair (diag(J, J^T), (v_W, 0)) on W + W* of the
    exotic key (mu; nu), with (J, v_W) its type-A normal form on W."""
    base = orbit_representative(key, p)
    k = base.n
    x = tuple(row + (0,) * k for row in base.x) + tuple(
        (0,) * k + row for row in transpose(base.x)
    )
    return x, base.v + (0,) * k


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


def _kernel_meets(x: Matrix, images: Sequence[Subspace], p: int, normals: Matrix = ()) -> list[Matrix]:
    """Bases of A_a = I_a cap ker x, cut down to w . f = 0 for each normal f,
    for the row spaces I_a = images[a] of the powers of x, closed by ()."""
    meets = []
    for space in images[:-1]:
        # I_a is x-stable: A_a is the kernel of x restricted to I_a.
        restriction, _ = induced_maps(x, space, p)
        rows = transpose(restriction) + tuple(apply(f, transpose(space.basis), p) for f in normals)
        kernel = right_kernel(rows, p)
        meets.append(tuple(apply(c, space.basis, p) for c in kernel.basis))
    meets.append(())
    return meets


def pattern_dimensions(bla: Bipartition, p: int) -> tuple[tuple[Bipartition, tuple[int, ...]], ...]:
    """(quotient class, corners) of each non-empty line pattern of bla over
    GF(p), by rank computations on the normal form: the oracle of
    flags._line_patterns.

    With I_k the row space of x^k, K the Krylov span of v and J_k = I_k + K,
    the lines of ker x are counted by `_nonempty_patterns` over
    A_a = I_a cap ker x and the J_b, closed by the zero spaces A_h and
    J_(h + 1), h the nilpotency index of x.
    """
    z = orbit_representative(bla, p)
    n = z.n
    images = power_images(z.x, p)
    height = len(images) - 1
    krylov = Subspace.from_vectors(krylov_basis(z.x, z.v, p), n, p)
    joined = [space.sum(krylov) for space in images] + [Subspace.zero(n, p)]
    dims = [
        [
            len(meet)
            if b <= a
            else len(meet) + joined[b].dim - rank(meet + joined[b].basis, p)
            for b in range(height + 2)
        ]
        for a, meet in enumerate(_kernel_meets(z.x, images, p))
    ]
    out = []
    for a, b, corners in _nonempty_patterns(dims):
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


def exotic_patterns(key: Bipartition, p: int) -> tuple[tuple[Bipartition, tuple[int, ...]], ...]:
    """(quotient key, corners) of each non-empty line pattern of the exotic
    key over GF(p), by rank computations on the doubled normal form: the
    oracle of flags._line_patterns(key, exotic=True).

    In the normal form x = diag(J, J^T), v = (v_W, 0) on W + W*, the lines
    <w> of ker x cap v^perp are counted by `_nonempty_patterns` over
    A_a = V x^a cap ker x cap v^perp and D_d = K^perp x^d + K, K the Krylov
    span of v.  Each pattern is assumed to fix the key of the pair induced
    on <w>^perp / <w>, and one w classifies it: a basis vector of
    A_a cap D_d or a sum of two, as no space is the union of two proper
    subspaces.
    """
    x, v = doubled_normal_form(key, p)
    space = SymplecticSpace(len(x) // 2, p)
    images = power_images(x, p)
    krylov = Subspace.from_vectors(krylov_basis(x, v, p), space.dim, p)
    moved, chain = _perp(space, krylov), []
    for _ in images:
        chain.append(moved.sum(krylov))
        moved = Subspace.from_vectors([apply(b, x, p) for b in moved.basis], space.dim, p)
    chain.append(Subspace.zero(space.dim, p))
    meets = [  # w lies in D_d exactly when it is orthogonal to D_d^perp
        _kernel_meets(x, images, p, space.times_gram((v,) + _perp(space, d_space).basis))
        for d_space in chain
    ]
    dims = [[len(row[a]) for row in meets] for a in range(len(images))]
    out = []
    for a, d, corners in _nonempty_patterns(dims):
        basis = meets[d][a]
        pool = basis + tuple(tuple((i + j) % p for i, j in zip(b, c)) for b in basis for c in basis)
        w = next(w for w in pool if not (images[a + 1].contains(w) or chain[d + 1].contains(w)))
        out.append((exotic_quotient_key(space, x, v, w), corners))
    return tuple(out)


def exotic_quotient_key(space: SymplecticSpace, x: Matrix, v: Vector, w: Vector) -> Bipartition:
    """The exotic key of the pair induced by (x, v) on <w>^perp / <w>."""
    p = space.p
    perp = _perp(space, Subspace.from_vectors([w], space.dim, p))
    restriction, _ = induced_maps(x, perp, p)
    line = Subspace.from_vectors([perp.coords(w)], space.dim - 1, p)
    _, quotient = induced_maps(restriction, line, p)
    residue = line.reduce(perp.coords(v))
    v_bar = tuple(c for j, c in enumerate(residue) if j not in line.pivots)
    return _exotic_key(classify(EnhancedPair(quotient, v_bar, p)))


def commutant_spans(lam: Partition, p: int) -> dict[Bipartition, tuple[int, frozenset]]:
    """{beta: (dim W_beta, the classes gamma != beta below beta)} over J_lam
    at p, from a commutant basis: the oracle of pairs._class_spans.

    W_beta = C(x)v_beta is the span of the normal-form vector under the
    commutant, and gamma lies below beta when v_gamma is in W_beta.
    """
    n = sum(lam)
    basis = commutant(jordan_matrix(lam, p), p)
    vectors = {
        bla: orbit_representative(bla, p).v
        for bla in enumerate_bipartitions(n)
        if partition_sum(*bla) == lam
    }
    out = {}
    for bla, v in vectors.items():
        span = Subspace.from_vectors([apply(v, a, p) for a in basis], n, p)
        below = frozenset(g for g, w in vectors.items() if g != bla and span.contains(w))
        out[bla] = (span.dim, below)
    return out


# flag nodes count_plain visits before it gives up
PLAIN_BUDGET = 2_000_000


def count_plain(x: Matrix, v: Vector, m: int, p: int, budget: int = PLAIN_BUDGET) -> int:
    """Depth-first enumeration of stable flags with pruning at step m; the
    budget bounds the flag nodes it visits.  The oracle of flags.count_fiber."""
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


def stable_line_fiber_count(space: SymplecticSpace, s: Matrix, x: Matrix, v: Vector) -> int:
    """Depth first over stable isotropic lines: the oracle of
    symplectic.exotic_fiber_count, for twisted x and s = diag(t, t).

    F_(k+1) = F_k + <w> qualifies exactly when w is in F_k^perp and
    w (x - s_k) is in F_k, s_k the k-th diagonal entry of s in flag order;
    one kernel per node.  v is in the Lagrangian F_n exactly when every w is
    orthogonal to v: the row v J.
    """
    n, p, dim = space.n, space.p, space.dim
    diag = [s[i][i] for i in range(n)]
    v_row = space.times_gram((v,))

    def count(current: Subspace) -> int:
        k = current.dim
        # w (x - s_k) lies in F_k exactly when w annihilates the columns of
        # the residues mod F_k of the rows of x - s_k
        residues = [
            current.reduce(r[:i] + (r[i] - diag[k],) + r[i + 1 :]) for i, r in enumerate(x)
        ]
        rows = transpose(residues) + space.times_gram(current.basis) + v_row
        allowed = right_kernel(rows, p)
        if k == n - 1:  # the last step's lines, counted in closed form
            return (p ** (allowed.dim - k) - 1) // (p - 1)
        fresh = Subspace.from_vectors([current.reduce(b) for b in allowed.basis], dim, p)
        return sum(
            count(Subspace.from_vectors(current.basis + (w,), dim, p)) for w in fresh.lines()
        )

    return count(Subspace.zero(dim, p))


def unitriangular_elements(
    order: Sequence[int], p: int, free: Optional[Sequence[tuple[int, int]]] = None
) -> Iterator[Matrix]:
    """All unipotent matrices stabilizing the coordinate flag taken in `order`.

    With the row-vector action the stabilizer of <e_order[0]> <
    <e_order[0], e_order[1]> < ... has ones on the diagonal and free
    entries at (order[i], order[j]) for j < i: lower unitriangular once
    the coordinates are listed in that order.  Passing `free`, a subset
    of those positions, enumerates the pattern subgroup whose other
    entries are 0 instead.
    """
    dim = len(order)
    positions = gfmat.unitriangular_positions(order)
    if free is not None:
        chosen = set(free)
        if not chosen <= set(positions):
            raise ValueError("free positions must lie strictly below the flag diagonal")
        positions = [pos for pos in positions if pos in chosen]
    base = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for values in all_vectors(len(positions), p):
        rows = [row[:] for row in base]
        for (i, j), val in zip(positions, values):
            rows[i][j] = val
        yield tuple(tuple(r) for r in rows)


def flag_unipotent_elements(space: SymplecticSpace) -> Iterator[Matrix]:
    """All elements of the unipotent radical of the flag-stabilizing Borel.

    p^{n(2n-1)} of them; the library's twisted cosets and pattern subgroups
    avoid this walk.
    """
    return unitriangular_elements(space.flag_order, space.p)


def unipotent_meet(space: SymplecticSpace, w: SignedPermutation) -> Iterator[Matrix]:
    """The elements of A = U meet w U w^{-1} inside GL_{2n}, each a tuple of
    rows: the product of the row sets of `_meet_rows`."""
    return itertools.product(*_meet_rows(space, w))


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


def twisted_coset_set(space: SymplecticSpace, s: Matrix) -> list[Matrix]:
    """The intersection (sU)^{iota theta} of the coset s U with the twisted
    set, listed: s u for one solution of the twistedness system over all
    free positions of U plus each vector of its kernel.  An inconsistent
    system gives []."""
    p, dim = space.p, space.dim
    free = gfmat.unitriangular_positions(space.flag_order)
    rows, rhs = _twisted_system(space, s, free)
    try:
        base = _solve_affine(rows, rhs, len(free), p)
    except ValueError:
        return []
    kernel = right_kernel(tuple(rows), p).basis
    out = []
    for t in all_vectors(len(kernel), p):
        u = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for k, (a, b) in enumerate(free):
            u[a][b] = (base[k] + sum(tk * vec[k] for tk, vec in zip(t, kernel))) % p
        out.append(mat_mul(s, tuple(tuple(r) for r in u), p))
    return out


def listed_z_variety_count(space: SymplecticSpace, s: Matrix) -> int:
    """`z_variety_count` from the listing: every member of X = (sU)^{iota theta}
    is conjugated by every w in W_n and looked up in X."""
    p = space.p
    base = twisted_coset_set(space, s)
    members = frozenset(base)
    total = 0
    for w in signed_permutations(space.n):
        rows = signed_rows(w.matrix(space))
        shared = sum(1 for y in base if signed_conjugate(rows, y, p) in members)
        total += p ** length(w) * shared * p ** lagrangian_meet_dim(space, w)
    return type_c_poincare(space.n, p) * total


def product_root_group_counts(space: SymplecticSpace, w: SignedPermutation) -> tuple[int, int, int]:
    """`symplectic.root_group_counts` by forming y = u theta(u)^{-1} for each
    u in A = U meet w U w^{-1}: (|A|, the u with y = I, the distinct y)."""
    p = space.p
    unit = identity(space.dim)
    size = fixed = 0
    image = set()
    for u in unipotent_meet(space, w):
        y = mat_mul(u, space.theta_inv_of(u), p)
        size += 1
        fixed += y == unit
        image.add(y)
    return size, fixed, len(image)


def symplectic_transition(space: SymplecticSpace, flag: Sequence[Subspace]) -> Matrix:
    """An element of Sp mapping the standard isotropic flag onto the given one.

    Rows 1..n are a flag-adapted basis b_i of the isotropic steps; rows
    n+1..2n are a dual family c_i with <b_i, c_j> = delta_ij and <c_i, c_j> = 0,
    found by solving the pairing equations step by step.  It serves the
    flag-by-flag fiber oracle.
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


def encode(x: Matrix, v: Vector) -> bytes:
    """The pair (x, v) as one flat byte string, the state of `h_orbit`."""
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
    as the set of `encode`d pairs: the oracle of symplectic.exotic_orbit_size.

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
    start = encode(x, v)
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
