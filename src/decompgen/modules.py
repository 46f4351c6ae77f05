"""Modules over fiber algebras: composition factors, radicals, splitting.

The chop follows the classical randomized recipe: spin up kernel vectors of
polynomial evaluations of random algebra elements to find proper submodules,
where the spin of v is the span of v and the b_i·v (A·v is already closed),
and certify simplicity either by the surjectivity-onto-End criterion (the
image of the algebra spans the full matrix ring exactly for split simples,
a pure rank computation that needs no factorization, asked first when
d^2 <= dim A, where it stops at the first column without a pivot, and
otherwise only for a Norton verdict) or by Norton's two-sided
kernel-spinning test with an irreducible factor of a characteristic
polynomial.  The chop asks `factor.factor_pieces` for those factors.  They
are certified irreducible over Q, GF(q) and Q(vars); over GF(p)(vars) only
constant-coefficient polynomials factor, so there the rank certificate plus
the budget is the engineering answer, and running out of budget is an error
rather than a wrong answer.

Random elements are integer-coefficient combinations of the basis drawn
from a growing window, so the same seed gives the same run over any field.

The chop's leaves fall into isomorphism classes.  An absolutely simple leaf
(image rank d^2) is told apart from every other simple by the traces of the
basis elements, so the char polys (the fingerprint) are taken once per
class, for its first leaf.

The Jacobson radical is the intersection of the annihilators of the
simples in every characteristic: the kernel of the matrix of their
entries, read off the memoized chop of the regular module that the split
test needs anyway.  It is a two-sided ideal by construction, so only its
nilpotency is checked.
"""

import random
from dataclasses import dataclass
from functools import wraps
from itertools import chain

from . import polyops as P
from .errors import ChopBudgetExceeded, EngineError, Inconsistent, RadicalNotNilpotent
from .factor import factor_pieces
from .linalg import (
    Matrix,
    char_poly,
    echelon_reduce,
    eval_poly_at_matrix,
    kernel_basis,
    pivot_columns,
    point_rank,
    rref_rows,
)
from .algebra import nilpotency_index, span_subspace


class AlgebraModule:
    """A module over a fiber algebra: one action matrix per basis element."""

    def __init__(self, fiber, action):
        self.fiber = fiber
        self.action = action  # list of Matrix
        self.dim = action[0].nrows if action else 0

    def validate(self):
        F = self.fiber.field
        n = self.fiber.dim
        ident = Matrix.identity(F, self.dim)
        acc = Matrix.zeros(F, self.dim, self.dim)
        for i in range(n):
            if not F.is_zero(self.fiber.unit[i]):
                acc = acc.add(self.action[i].scale(self.fiber.unit[i]))
        if acc != ident:
            raise Inconsistent("unit does not act as the identity")
        for i in range(n):
            for j in range(n):
                lhs = self.action[i].mul(self.action[j])
                rhs = Matrix.zeros(F, self.dim, self.dim)
                for k, c in self.fiber.terms[i][j]:
                    rhs = rhs.add(self.action[k].scale(c))
                if lhs != rhs:
                    raise Inconsistent("action does not respect the table")
        return self

    def act_element(self, coeffs):
        """Matrix of sum_i coeffs[i] b_i acting on the module."""
        F = self.fiber.field
        out = Matrix.zeros(F, self.dim, self.dim)
        for i, c in enumerate(coeffs):
            if not F.is_zero(c):
                out = out.add(self.action[i].scale(c))
        return out

    def char_polys(self):
        return tuple(char_poly(m) for m in self.action)

    def transpose_module(self):
        return AlgebraModule(self.fiber, [m.transpose() for m in self.action])

    def __repr__(self):
        return f"<module of dim {self.dim} over {self.fiber!r}>"


def regular_module(fiber):
    mats = [fiber.left_regular_matrix(fiber.basis_vector(i)) for i in range(fiber.dim)]
    return AlgebraModule(fiber, mats)


# --- spinning ----------------------------------------------------------------------

def spin(module, vectors):
    """Canonical echelon basis of the submodule generated by the vectors:
    the span of each v and the b_i·v.  The action matrices are those of a
    basis of A and 1 lies in A, so that span is A·v, already closed (on a
    transpose module the ρ(b_i)ᵀ span ρ(A)ᵀ, closed under products too) and
    no image of an image is taken.  A full span is the identity rows."""
    F = module.fiber.field
    rows = []
    pivots = []
    for v in vectors:
        for w in chain([v], (m.apply(v) for m in module.action)):
            w = echelon_reduce(F, rows, pivots, w)
            pj = next((k for k, c in enumerate(w) if not F.is_zero(c)), None)
            if pj is None:
                continue
            inv = F.inv(w[pj])
            rows.append([F.mul(inv, c) for c in w])
            pivots.append(pj)
            if len(rows) == module.dim:
                return Matrix.identity(F, module.dim).rows
    return rref_rows(F, rows)[0] if rows else []


def submodule(module, rows):
    """Restriction of the action to the subspace spanned by reduced echelon
    rows, as `spin` returns them: the coordinates of a vector of that span
    are its entries at the pivot columns.  Raises Inconsistent when the
    subspace is not stable under the action."""
    F = module.fiber.field
    pivots = pivot_columns(F, rows)
    acts = []
    for m in module.action:
        cols = []
        for row in rows:
            w = m.apply(row)
            if not all(F.is_zero(c) for c in echelon_reduce(F, rows, pivots, w)):
                raise Inconsistent("the subspace is not stable under the action")
            cols.append([w[p] for p in pivots])
        acts.append(Matrix(F, zip(*cols)))
    return AlgebraModule(module.fiber, acts)


def quotient_module(module, rows):
    """Action on the quotient by the subspace spanned by echelon rows."""
    F = module.fiber.field
    pivots = pivot_columns(F, rows)
    free = [j for j in range(module.dim) if j not in pivots]
    acts = []
    for m in module.action:
        # column j of m is the image of the unit vector e_j
        cols = [echelon_reduce(F, rows, pivots, [r[j] for r in m.rows]) for j in free]
        acts.append(Matrix(F, [[col[a] for col in cols] for a in free]))
    return AlgebraModule(module.fiber, acts)


# --- simplicity and the chop ---------------------------------------------------------

@dataclass
class SimpleModule:
    module: AlgebraModule
    fingerprint_polys: tuple
    image_rank: int  # dimension of the image of the algebra in End(module)

    @property
    def dim(self):
        return self.module.dim

    def sort_key(self):
        F = self.module.fiber.field
        return (self.dim, tuple(P.ukey(F, p) for p in self.fingerprint_polys))

    def __repr__(self):
        return f"<simple of dim {self.dim}>"


def _image_pivots(module):
    """Per column of the n x d^2 matrix whose row i is ρ(b_i) read row by
    row, whether forward elimination finds a pivot there; a caller that
    stops at the first False stops the elimination.  Over k(vars) a point
    rank (linalg.point_rank, a lower bound) of d^2 flags every column."""
    F = module.fiber.field
    flat = [[c for row in m.rows for c in row] for m in module.action]
    full = module.dim ** 2
    if point_rank(Matrix(F, flat)) == full:
        yield from [True] * full
        return
    for j in range(full):
        i = next((i for i, row in enumerate(flat) if not F.is_zero(row[j])), None)
        yield i is not None
        if i is None:
            continue
        prow = flat.pop(i)
        inv = F.inv(prow[j])
        support = [k for k in range(j + 1, full) if not F.is_zero(prow[k])]
        for k in support:
            prow[k] = F.mul(inv, prow[k])
        for row in flat:
            if not F.is_zero(row[j]):
                for k in support:
                    row[k] = F.sub(row[k], F.mul(row[j], prow[k]))


def algebra_image_rank(module):
    """Dimension of the image of the algebra in End(module)."""
    return sum(_image_pivots(module))


def hom_dim(S, T):
    """Dimension of the space of intertwiners S -> T: the kernel of a
    system in dim S * dim T unknowns, by exact elimination."""
    F = S.fiber.field
    ds, dt = S.dim, T.dim
    rows = []
    for i in range(S.fiber.dim):
        ms, mt = S.action[i], T.action[i]
        # unknowns X[a][b], equation rows indexed by (c, b):
        # sum_a mt[c][a] X[a][b] - sum_k X[c][k] ms[k][b] = 0
        for c in range(dt):
            for b in range(ds):
                row = [F.zero] * (dt * ds)
                for a in range(dt):
                    row[a * ds + b] = F.add(row[a * ds + b], mt.rows[c][a])
                for k in range(ds):
                    row[c * ds + k] = F.sub(row[c * ds + k], ms.rows[k][b])
                rows.append(row)
    if not rows:
        return 0
    return len(kernel_basis(Matrix(F, rows)))


def _split_or_certify(module, rng, attempts):
    """Either ('split', echelon rows of a proper submodule) or ('simple',
    the image rank of the algebra in End(module)); raises
    ChopBudgetExceeded when nothing certifies."""
    F = module.fiber.field
    d = module.dim
    if d == 1:
        return ("simple", 1)
    n = module.fiber.dim

    def split(side, vectors):
        """Echelon rows of a proper submodule of module, from the first
        vector whose spin on side (module or its transpose) is proper, or
        None.  A proper submodule W of the transpose gives its annihilator,
        a proper submodule of dimension d - dim W, whose canonical kernel
        basis is already the echelon rows a spin would return."""
        for v in vectors:
            w = spin(side, [v])
            if 0 < len(w) < d:
                return w if side is module else kernel_basis(Matrix(F, w))
        return None

    # a rank of d^2 makes the module absolutely simple, which no sweep can
    # split; whether it is d^2 is decided at the first column without a
    # pivot, and the rank is at most n, so only a Norton verdict needs more
    if d * d <= n and all(_image_pivots(module)):
        return ("simple", d * d)
    # standard basis vectors usually find obvious submodules
    units = Matrix.identity(F, d).rows
    w = split(module, units)
    if w:
        return ("split", w)
    transpose = module.transpose_module()
    w = split(transpose, units)
    if w:
        return ("split", w)
    for attempt in range(attempts):
        window = 1 + attempt // 4
        coeffs = [F.from_int(rng.randint(-window, window)) for _ in range(n)]
        X = module.act_element(coeffs)
        chi = char_poly(X)
        pieces = factor_pieces(F, chi)
        pieces.sort(key=lambda t: P.udeg(t[0]))
        for f, is_irred in pieces:
            if not is_irred and P.udeg(f) == P.udeg(chi):
                continue  # the whole polynomial: kernel is everything
            # f shares a root with the minimal polynomial of X, so f(X) is
            # singular and ker is never empty
            N = eval_poly_at_matrix(F, f, X)
            ker = kernel_basis(N)
            if len(ker) < d:
                w = split(module, ker) or split(transpose, kernel_basis(N.transpose()))
                if w:
                    return ("split", w)
            if is_irred and len(ker) == P.udeg(f):
                # kernel dimension equals deg f and every spin on both sides
                # filled the module (here or in the opening sweeps): Norton's
                # criterion certifies irreducibility
                return ("simple", algebra_image_rank(module))
    raise ChopBudgetExceeded(
        f"could not split or certify a dim-{d} module over {F!r} in {attempts} attempts")


def chop(module, seed=1, attempts=80):
    """Composition factors with multiplicities, one per isomorphism class,
    sorted canonically by fingerprint.  A leaf of image rank d^2 is keyed by
    its dimension and the traces of the basis elements, any other by its
    dimension and char polys; the first leaf of a class represents it, and
    its char polys are taken once.  The multiset is seed-independent."""
    rng = random.Random(seed)
    leaves = []
    stack = [module]
    while stack:
        m = stack.pop()
        if m.dim == 0:
            continue
        verdict, data = _split_or_certify(m, rng, attempts)
        if verdict == "simple":
            leaves.append((m, data))
        else:
            stack.append(submodule(m, data))
            stack.append(quotient_module(m, data))
    # A leaf of image rank d^2 is absolutely simple: for a simple T not
    # isomorphic to it, A maps onto End(S) x A/ann T, so some basis element
    # has different traces on S and T.  Isomorphic leaves have equal char
    # polys, so with canonical scalars these classes, their first leaves and
    # counts are those of a (dim, char_polys) key for every leaf.
    grouped = {}
    for m, rank in leaves:
        absolute = rank == m.dim ** 2
        data = tuple(a.trace() for a in m.action) if absolute else m.char_polys()
        grouped.setdefault((m.dim, absolute, data), [m, rank, 0])[2] += 1
    simples = [(SimpleModule(m, m.char_polys() if absolute else data, rank), count)
               for (_, absolute, data), (m, rank, count) in grouped.items()]
    return sorted(simples, key=lambda t: t[0].sort_key())


def _per_table(analysis):
    """Memoize analysis(fiber, seed) per distinct table in the fiber's algebra
    family: the `analyses` dict of the loaded algebra, shared by its
    specializations and restrictions and keyed by table content (the fiber's
    `table_key`, hashed once per fiber), so the fiber at p and the generic
    fiber of the restriction to V(p) share one result.  Every caller gets the
    same result object and must not mutate it."""
    @wraps(analysis)
    def memoized(fiber, seed=1):
        key = (analysis.__name__, fiber.table_key, seed)
        if key not in fiber.analyses:
            fiber.analyses[key] = analysis(fiber, seed)
        return fiber.analyses[key]
    return memoized


@_per_table
def regular_factors(fiber, seed=1):
    """chop of the fiber's regular module."""
    return chop(regular_module(fiber), seed=seed)


def is_isomorphic(S, T, cross_validate=False):
    """Fingerprint comparison; complete for certified simples over one fiber."""
    if S.module.fiber.field != T.module.fiber.field:
        return False
    same = S.dim == T.dim and S.fingerprint_polys == T.fingerprint_polys
    if cross_validate:
        hd = hom_dim(S.module, T.module)
        if (hd > 0) != same:
            raise EngineError("fingerprint equality disagrees with Hom")
    return same


# --- radical and splitting -----------------------------------------------------------

@_per_table
def radical(fiber, seed=1):
    """Basis of the Jacobson radical as a canonical SubLattice: the
    intersection of the annihilators of the simple modules, read off the
    memoized chop of the regular module, in every characteristic.  Over
    k(vars) the radical is 0 without elimination when the matrix of simple
    entries has point rank dim A (linalg.point_rank, a lower bound on its
    rank).  Each ρ_S is an algebra homomorphism, so the result is a
    two-sided ideal by construction; only its nilpotency is verified.
    """
    F = fiber.field
    cols = []
    for s, _ in regular_factors(fiber, seed):
        mats = s.module.action
        for a in range(s.dim):
            for b in range(s.dim):
                cols.append([mats[i].rows[a][b] for i in range(fiber.dim)])
    if not cols:
        ker = [list(v) for v in Matrix.identity(F, fiber.dim).rows]
    else:
        entries = Matrix(F, cols)
        ker = [] if point_rank(entries) == fiber.dim else kernel_basis(entries)
    lattice = span_subspace(fiber, ker)
    _assert_radical(fiber, lattice)
    return lattice


def _assert_radical(fiber, lattice):
    """Raise RadicalNotNilpotent unless the candidate I = ∩_S ker ρ_S is
    nilpotent.  That I is a two-sided ideal needs no check: the load-time
    check proves the table associative, and fibers and restrictions stay
    associative; each ρ_S is a subquotient of the left regular
    representation, whose rows `submodule` checks stable, so each ρ_S is an
    algebra homomorphism and each ker ρ_S a two-sided ideal, and so is I.
    Nilpotency is what checks that the list of simples is complete."""
    if nilpotency_index(fiber, lattice) is None:
        raise RadicalNotNilpotent("radical candidate is not nilpotent")


@dataclass
class WedderburnData:
    fiber: object
    simples: list          # SimpleModule, canonical order
    multiplicities: list   # in the regular module of the semisimple quotient
    jh_multiplicities: list  # Jordan-Hoelder multiplicities in the full regular module
    endo_dims: list
    radical_dim: int

    @property
    def split(self):
        return all(e == 1 for e in self.endo_dims)

    def bookkeeping_ok(self):
        total = self.radical_dim + sum(
            m * s.dim for s, m in zip(self.simples, self.multiplicities))
        return total == self.fiber.dim


@_per_table
def is_split(fiber, seed=1):
    """(split?, WedderburnData) for a fiber algebra.

    The stored multiplicity of a simple is its multiplicity on top of the
    radical, dim S / dim End(S); only then does the Artin-Wedderburn count
    radical_dim + sum(mult * dim) = dim A close up.
    """
    factors = regular_factors(fiber, seed)
    simples = [s for s, _ in factors]
    jh_mults = [m for _, m in factors]
    endo = []
    for s in simples:
        # A maps onto End_D(S) (Jacobson density), of dimension d^2 / dim D;
        # the chop took that image rank when it certified S
        r = s.image_rank
        if s.dim ** 2 % r or s.dim % (s.dim ** 2 // r):
            raise RadicalNotNilpotent(
                f"image rank {r} is not d^2 / dim End for a simple of dimension d = {s.dim}")
        endo.append(s.dim ** 2 // r)
    mults = [s.dim // e for s, e in zip(simples, endo)]
    rad = radical(fiber, seed=seed)
    data = WedderburnData(fiber, simples, mults, jh_mults, endo, rad.dim)
    if not data.bookkeeping_ok():
        raise RadicalNotNilpotent(
            f"dimension bookkeeping failed: radical {rad.dim}, "
            f"factors {[(s.dim, m) for s, m in factors]}, dim {fiber.dim}")
    return data.split, data
