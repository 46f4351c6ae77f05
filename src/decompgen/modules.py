"""Modules over fiber algebras: composition factors, radicals, splitting.

The chop follows the classical randomized recipe: spin up kernel vectors of
polynomial evaluations of random algebra elements to find proper submodules,
where the spin of v is the span of v and the b_i·v (A·v is already closed;
the opening sweeps read the spin of e_j off column j of each ρ(b_i), or off
row j on the transpose side, and skip each e_j whose spin the parent node
proved full: a quotient inherits the module side at its free columns, a
submodule the transpose side at its pivots; the regular module is read
off the table's terms, subquotients are built from nonzero columns reduced
over the nonzero tails of echelon rows, and a transpose is built at its
first spin),
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
from a growing window by one generator, `random.Random(1)`, so every run
is the same over any field and reports are deterministic.

The chop's leaves fall into isomorphism classes.  An absolutely simple leaf
(image rank d^2) is told apart from every other simple by the traces of the
basis elements, so the char polys (the fingerprint) are taken once per
class, for its first leaf.

The composition factors of a fiber's regular module are memoized per
table (`regular_factors`).  They are the chop of the regular module, or,
when `decomposition.fiber_split_data` hands in the reductions L̄_S of the
generic simples with their Jordan-Hoelder counts, the classes of the
leaves of their chops (`composition_factors`), a leaf of L̄_S counted
jh(S) times; modules of dimension d_S are chopped, not one of dimension
dim A.  Either way the counts times the dimensions must add up to dim A.

The Jacobson radical is the intersection of the annihilators of the
simples in every characteristic: the kernel of the matrix of their
entries, read off those memoized composition factors, which the split
test needs anyway.  It is a two-sided ideal by construction, so only its
nilpotency is checked, and that check also certifies the list of simples
complete.
"""

import random
from dataclasses import dataclass
from functools import cache, wraps
from itertools import chain

from . import polyops as P
from .errors import ChopBudgetExceeded, EngineError, Inconsistent, RadicalNotNilpotent
from .factor import factor_pieces
from .linalg import (
    Matrix,
    char_poly,
    echelon_reduce,
    echelon_tails,
    eval_poly_at_matrix,
    kernel_basis,
    point_rank,
    rref_rows,
)
from .algebra import SubLattice, nilpotency_index

# random elements the chop tries on one module before it gives up with
# ChopBudgetExceeded
CHOP_ATTEMPTS = 80


class AlgebraModule:
    """A module over a fiber algebra: one action matrix per basis element."""

    def __init__(self, fiber, action):
        self.fiber = fiber
        self.action = action  # list of Matrix
        self.dim = action[0].nrows if action else 0
        # the j whose unit spin is known to fill, on the module and the transpose side
        self.unit_fills = (set(), set())

    def act_element(self, coeffs):
        """Matrix of sum_i coeffs[i] b_i, summed over nonzero entries."""
        F = self.fiber.field
        zero, add, mul = F.zero, F.add, F.mul
        out = [[zero] * self.dim for _ in range(self.dim)]
        for c, m in zip(coeffs, self.action):
            if c != zero:
                for j, col in enumerate(m.columns()):
                    for i, a in col:
                        out[i][j] = add(out[i][j], mul(c, a))
        return Matrix(F, out)

    def char_polys(self):
        return tuple(char_poly(m) for m in self.action)

    def transpose_module(self):
        return AlgebraModule(self.fiber, [m.transpose() for m in self.action])

    def __repr__(self):
        return f"<module of dim {self.dim} over {self.fiber!r}>"


def regular_module(fiber):
    """ρ(b_i) read off the table: its column j, b_i·b_j, is terms[i][j]."""
    F, n = fiber.field, fiber.dim
    return AlgebraModule(fiber, [Matrix.from_columns(F, n, plane) for plane in fiber.terms])


# --- spinning ----------------------------------------------------------------------

def _span(F, d, vectors):
    """Canonical echelon basis of the span of vectors in F^d, each given by
    its nonzero entries and reduced modulo the rows so far; a full span
    stops and is the identity rows."""
    zero, mul = F.zero, F.mul
    rows, tails = [], []
    for w in vectors:
        w = echelon_reduce(F, tails, w)
        if w:
            pj = min(w)
            inv = F.inv(w.pop(pj))
            tail = {k: mul(inv, c) for k, c in w.items()}
            tails.append((pj, tail.items()))
            rows.append([F.one if k == pj else tail.get(k, zero) for k in range(d)])
            if len(rows) == d:
                return Matrix.identity(F, d).rows
    return rref_rows(F, rows)[0] if rows else []


def _image(F, m, v):
    """The nonzero entries {i: c} of m·v for v given by its nonzero (j, b):
    the columns of m at those j, summed."""
    zero, add, mul = F.zero, F.add, F.mul
    cols = m.columns()
    w = {}
    for j, b in v:
        for i, a in cols[j]:
            w[i] = add(w[i], mul(a, b)) if i in w else mul(a, b)
    return {i: c for i, c in w.items() if c != zero}


def spin(module, vectors):
    """Canonical echelon basis of the submodule generated by the vectors:
    the span of each v and the b_i·v.  The action matrices are those of a
    basis of A and 1 lies in A, so that span is A·v, already closed (on a
    transpose module the ρ(b_i)ᵀ span ρ(A)ᵀ, closed under products too) and
    no image of an image is taken.  A full span is the identity rows."""
    F = module.fiber.field
    vectors = [[(k, c) for k, c in enumerate(v) if c != F.zero] for v in vectors]
    return _span(F, module.dim, chain.from_iterable(
        chain([v], (_image(F, m, v) for m in module.action)) for v in vectors))


def unit_spins(module, transpose):
    """Lazily, the spin of each e_j on the module or its transpose, read off
    the action: b_i·e_j is column j of ρ(b_i), and ρ(b_i)ᵀ·e_j its row j.
    A j in that side's `unit_fills` is skipped, and a j whose spin fills
    the module joins it."""
    F, d = module.fiber.field, module.dim
    fills = module.unit_fills[transpose]
    for j in range(d):
        if j in fills:
            continue
        images = ([(k, c) for k, c in enumerate(m.rows[j]) if c != F.zero] if transpose
                  else m.columns()[j] for m in module.action)
        w = _span(F, d, chain([[(j, F.one)]], images))
        if len(w) == d:
            fills.add(j)
        yield w


def submodule(module, rows):
    """Restriction of the action to the subspace spanned by reduced echelon
    rows, as `spin` returns them: the coordinates of a vector of that span
    are its entries at the pivot columns.  Raises Inconsistent when the
    subspace is not stable under the action.  Coordinate a is read at pivot
    p_a, so e_a* is the restriction of e_{p_a}*, and if the transpose spin
    of e_{p_a} fills the module that of e_a fills the submodule."""
    F = module.fiber.field
    tails = echelon_tails(F, rows)
    vecs = [[(p, F.one)] + tail for p, tail in tails]
    acts = []
    for m in module.action:
        cols = []
        for v in vecs:
            w = _image(F, m, v)
            if echelon_reduce(F, tails, w):
                raise Inconsistent("the subspace is not stable under the action")
            cols.append([(a, w[p]) for a, (p, _) in enumerate(tails) if p in w])
        acts.append(Matrix.from_columns(F, len(tails), cols))
    sub = AlgebraModule(module.fiber, acts)
    sub.unit_fills[1].update(a for a, (p, _) in enumerate(tails) if p in module.unit_fills[1])
    return sub


def quotient_module(module, rows):
    """Action on the quotient by the subspace spanned by echelon rows: the
    image of e_j, column j of ρ(b), reduced modulo their tails, at the free
    columns.  Basis vector a is the class of the a-th free e_j, so if the
    spin of that e_j fills the module, that of e_a fills the quotient."""
    F = module.fiber.field
    tails = echelon_tails(F, rows)
    pivots = {p for p, _ in tails}
    free = [j for j in range(module.dim) if j not in pivots]
    acts = []
    for m in module.action:
        cols = []
        for j in free:
            col = m.columns()[j]
            w = echelon_reduce(F, tails, col) if col else {}
            cols.append([(a, w[i]) for a, i in enumerate(free) if i in w])
        acts.append(Matrix.from_columns(F, len(free), cols))
    quo = AlgebraModule(module.fiber, acts)
    quo.unit_fills[0].update(a for a, j in enumerate(free) if j in module.unit_fills[0])
    return quo


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
    zero = F.zero
    flat = [[c for row in m.rows for c in row] for m in module.action]
    full = module.dim ** 2
    if point_rank(Matrix(F, flat)) == full:
        yield from [True] * full
        return
    for j in range(full):
        i = next((i for i, row in enumerate(flat) if row[j] != zero), None)
        yield i is not None
        if i is None:
            continue
        prow = flat.pop(i)
        inv = F.inv(prow[j])
        support = [k for k in range(j + 1, full) if prow[k] != zero]
        for k in support:
            prow[k] = F.mul(inv, prow[k])
        for row in flat:
            if row[j] != zero:
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


def _split_or_certify(module, rng):
    """Either ('split', echelon rows of a proper submodule) or ('simple',
    the image rank of the algebra in End(module)); raises
    ChopBudgetExceeded when nothing certifies."""
    F = module.fiber.field
    d = module.dim
    if d == 1:
        return ("simple", 1)
    n = module.fiber.dim

    def split(spans, transpose):
        """Echelon rows of a proper submodule from the first proper span
        among spans (on the module or its transpose), or None.  A proper W
        of the transpose gives its annihilator, of dimension d - dim W, whose
        canonical kernel basis is already the echelon rows a spin returns."""
        for w in spans:
            if 0 < len(w) < d:
                return kernel_basis(Matrix(F, w)) if transpose else w
        return None

    # a rank of d^2 makes the module absolutely simple, which no sweep can
    # split; whether it is d^2 is decided at the first column without a
    # pivot, and the rank is at most n, so only a Norton verdict needs more
    if d * d <= n and all(_image_pivots(module)):
        return ("simple", d * d)
    # unit vectors usually find obvious submodules; their spins read the action
    w = split(unit_spins(module, False), False) or split(unit_spins(module, True), True)
    if w:
        return ("split", w)
    transpose = cache(module.transpose_module)  # built at its first spin
    for attempt in range(CHOP_ATTEMPTS):
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
                w = (split((spin(module, [v]) for v in ker), False)
                     or split((spin(transpose(), [v]) for v in kernel_basis(N.transpose())), True))
                if w:
                    return ("split", w)
            if is_irred and len(ker) == P.udeg(f):
                # kernel dimension equals deg f and the spins of the kernel
                # vectors on both sides fill the module (a kernel of dimension
                # d holds the e_j, whose spins the sweeps or the parent node
                # proved full): Norton's criterion certifies irreducibility
                return ("simple", algebra_image_rank(module))
    raise ChopBudgetExceeded(
        f"could not split or certify a dim-{d} module over {F!r} in {CHOP_ATTEMPTS} attempts")


def chop(module):
    """Composition factors with multiplicities, one per isomorphism class,
    sorted canonically by fingerprint (`composition_factors` of the module
    alone)."""
    return composition_factors([(module, 1)])


def composition_factors(weighted):
    """The composition factors of sum_M count·[M] over the (module, count)
    pairs of weighted, modules over one fiber: every leaf of M's chop
    counted count times, one entry per isomorphism class, sorted
    canonically by fingerprint.  A leaf of image rank d^2 is keyed by its
    dimension and the traces of the basis elements, any other by its
    dimension and char polys; the first leaf of a class represents it, and
    its char polys are taken once.  The multiset does not depend on the
    random draws, only the route to it does."""
    rng = random.Random(1)
    leaves = []
    for module, count in weighted:
        stack = [module]
        while stack:
            m = stack.pop()
            if m.dim == 0:
                continue
            verdict, data = _split_or_certify(m, rng)
            if verdict == "simple":
                leaves.append((m, data, count))
            else:
                stack.append(submodule(m, data))
                stack.append(quotient_module(m, data))
    # A leaf of image rank d^2 is absolutely simple: for a simple T not
    # isomorphic to it, A maps onto End(S) x A/ann T, so some basis element
    # has different traces on S and T.  Isomorphic leaves have equal char
    # polys, so with canonical scalars these classes, their first leaves and
    # counts are those of a (dim, char_polys) key for every leaf.
    grouped = {}
    for m, rank, count in leaves:
        absolute = rank == m.dim ** 2
        data = tuple(a.trace() for a in m.action) if absolute else m.char_polys()
        grouped.setdefault((m.dim, absolute, data), [m, rank, 0])[2] += count
    simples = [(SimpleModule(m, m.char_polys() if absolute else data, rank), count)
               for (_, absolute, data), (m, rank, count) in grouped.items()]
    return sorted(simples, key=lambda t: t[0].sort_key())


def _per_table(analysis):
    """Memoize analysis(fiber) per distinct table in the fiber's algebra
    family: the `analyses` dict of the loaded algebra, shared by its
    specializations and restrictions and keyed by table content (the fiber's
    `table_key`, hashed once per fiber), so the fiber at p and the generic
    fiber of the restriction to V(p) share one result.  Further arguments
    only choose a route to that same result, so they are not part of the
    key.  Every caller gets the same result object and must not mutate it."""
    @wraps(analysis)
    def memoized(fiber, *args):
        key = (analysis.__name__, fiber.table_key)
        if key not in fiber.analyses:
            fiber.analyses[key] = analysis(fiber, *args)
        return fiber.analyses[key]
    return memoized


@_per_table
def regular_factors(fiber, lattices=None):
    """Composition factors of the fiber's regular module with their
    Jordan-Hoelder multiplicities.  lattices, when given, is called for
    (module, count) pairs whose sum of count·[module] is the regular
    module's class in the Grothendieck group, or None when it has none;
    the factors are then those of the pairs (`composition_factors`), and
    otherwise the chop of the regular module.  Either way the counts times
    the dimensions must add up to dim A, or EngineError."""
    weighted = lattices and lattices()
    factors = composition_factors(weighted) if weighted else chop(regular_module(fiber))
    if sum(s.dim * m for s, m in factors) != fiber.dim:
        raise EngineError(
            f"composition factors {[(s.dim, m) for s, m in factors]} "
            f"do not fill a regular module of dim {fiber.dim}")
    return factors


# --- radical and splitting -----------------------------------------------------------

@_per_table
def radical(fiber):
    """Basis of the Jacobson radical as a canonical SubLattice: the
    intersection of the annihilators of the simple modules, read off the
    memoized chop of the regular module, in every characteristic.  Over
    k(vars) the radical is 0 without elimination when the matrix of simple
    entries has point rank dim A (linalg.point_rank, a lower bound on its
    rank).  The kernel basis, the identity rows and [] are canonical
    reduced echelon rows already, so they are the SubLattice as they
    stand.  Each ρ_S is an algebra homomorphism, so the result is a
    two-sided ideal by construction; only its nilpotency is verified.
    """
    F = fiber.field
    cols = []
    for s, _ in regular_factors(fiber):
        mats = s.module.action
        for a in range(s.dim):
            for b in range(s.dim):
                cols.append([mats[i].rows[a][b] for i in range(fiber.dim)])
    if not cols:
        ker = Matrix.identity(F, fiber.dim).rows
    else:
        entries = Matrix(F, cols)
        ker = [] if point_rank(entries) == fiber.dim else kernel_basis(entries)
    lattice = SubLattice(fiber, ker)
    _assert_radical(fiber, lattice)
    return lattice


def _assert_radical(fiber, lattice):
    """Raise RadicalNotNilpotent unless the candidate I = ∩_S ker ρ_S is
    nilpotent.  That I is a two-sided ideal needs no check: the load-time
    check proves the table associative, and fibers and restrictions stay
    associative; each ρ_S is a subquotient of the left regular
    representation, or of a generic simple's, itself one of the generic
    left regular representation, reduced through the ring homomorphism
    R_p -> k(p); `submodule` checks each subquotient's rows stable, so each
    ρ_S is an algebra homomorphism and each ker ρ_S a two-sided ideal, and
    so is I.  Nilpotency is what checks that the list of simples is
    complete."""
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
def is_split(fiber):
    """(split?, WedderburnData) for a fiber algebra.

    The stored multiplicity of a simple is its multiplicity on top of the
    radical, dim S / dim End(S); only then does the Artin-Wedderburn count
    radical_dim + sum(mult * dim) = dim A close up.
    """
    factors = regular_factors(fiber)
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
    rad = radical(fiber)
    data = WedderburnData(fiber, simples, mults, jh_mults, endo, rad.dim)
    if not data.bookkeeping_ok():
        raise RadicalNotNilpotent(
            f"dimension bookkeeping failed: radical {rad.dim}, "
            f"factors {[(s.dim, m) for s, m in factors]}, dim {fiber.dim}")
    return data.split, data
