"""Exact linear algebra over the engine's fields, plus lattice normal forms
over Z and k[x] and coprime bases of polynomial families.

`solve` returns the unique solution of a linear system and raises
Inconsistent when there is none or more than one.  `coprime_base` is the
one factor refinement (split two pieces by their gcd until all are
coprime), run on the data of a kernel set: dense one-variable polynomials
for `gcd_free_basis`, sparse two-variable ones for the squarefree split of
the minimal primes.

A `Matrix` is built from dense rows or from the nonzero entries of its
columns and keeps both views, each built from the other on first use and
never mutated: products walk the columns, as action matrices of monomial
tables are mostly zero, and eliminations walk `rows`.  Scalars are
canonical: an entry is zero iff it == F.zero, so `echelon_reduce` can work
on a vector's nonzero entries alone.

Everything is deterministic: no randomized pivoting, row echelon forms pick
the first usable pivot, so repeated runs produce identical output.  Matrices
are small (algebra dimensions stay below ~20), so the classical algorithms
are the right tool.
"""

from dataclasses import dataclass

from . import polyops as P
from .errors import DimensionMismatch, EngineError, Inconsistent, NotSquare
from .fields import DenseKernels, FuncField

class Matrix:
    """A matrix over a field, built from dense rows or, by `from_columns`,
    from the nonzero entries of its columns.  Neither view may be mutated
    after construction: the view built from the other on first use is never
    invalidated."""

    __slots__ = ("field", "nrows", "ncols", "_rows", "_cols")

    def __init__(self, field, rows):
        self.field = field
        self._rows = [list(r) for r in rows]
        self.nrows = len(self._rows)
        self.ncols = len(self._rows[0]) if self._rows else 0
        self._cols = None  # see columns

    @classmethod
    def from_columns(cls, field, nrows, cols):
        """The nrows x len(cols) matrix whose column j has the nonzero
        entries cols[j], as (i, a_ij) pairs in increasing i."""
        m = cls.__new__(cls)
        m.field, m.nrows, m.ncols, m._rows, m._cols = field, nrows, len(cols), None, cols
        return m

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[field.one if i == j else field.zero for j in range(n)] for i in range(n)])

    @property
    def rows(self):
        """The dense rows; built from the columns on first use."""
        rows = self._rows
        if rows is None:
            rows = [[self.field.zero] * self.ncols for _ in range(self.nrows)]
            for j, col in enumerate(self._cols):
                for i, a in col:
                    rows[i][j] = a
            self._rows = rows
        return rows

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.field == other.field and self.rows == other.rows

    def __repr__(self):
        body = "; ".join(" ".join(self.field.to_str(c) for c in r) for r in self.rows)
        return f"[{body}]"

    def transpose(self):
        return Matrix(self.field, [self.column(j) for j in range(self.ncols)])

    def scale(self, c):
        F = self.field
        return Matrix(F, [[F.mul(c, a) for a in r] for r in self.rows])

    def mul(self, other):
        F = self.field
        if self.ncols != other.nrows:
            raise DimensionMismatch("matrix product shape mismatch")
        bt = list(zip(*other.rows))
        zero = F.zero
        out = []
        for r in self.rows:
            row = []
            for c in bt:
                acc = F.zero
                for a, b in zip(r, c):
                    if a != zero and b != zero:
                        acc = F.add(acc, F.mul(a, b))
                row.append(acc)
            out.append(row)
        return Matrix(F, out)

    def columns(self):
        """Per column j, its nonzero (i, a_ij) in increasing i; built from
        the rows on first use."""
        cols = self._cols
        if cols is None:
            zero = self.field.zero
            cols = [[] for _ in range(self.ncols)]
            for i, r in enumerate(self._rows):
                for col, a in zip(cols, r):
                    if a != zero:
                        col.append((i, a))
            self._cols = cols
        return cols

    def column(self, j):
        """Column j as a dense vector, filled from its nonzero entries."""
        out = [self.field.zero] * self.nrows
        for i, a in self.columns()[j]:
            out[i] = a
        return out

    def apply(self, vec):
        """self * vec over the nonzero entries of vec and of each column;
        each out[i] still adds its terms in increasing column order."""
        F = self.field
        add, mul, zero = F.add, F.mul, F.zero
        out = [zero] * self.nrows
        for col, b in zip(self.columns(), vec):
            if b != zero:
                for i, a in col:
                    out[i] = add(out[i], mul(a, b))
        return out

    def trace(self):
        F = self.field
        if self.nrows != self.ncols:
            raise NotSquare("trace of a non-square matrix")
        t = F.zero
        for j, col in enumerate(self.columns()):
            t = F.add(t, next((a for i, a in col if i == j), F.zero))
        return t


def rref_rows(field, rows):
    """Reduced row echelon form of a list of row vectors.

    Returns (rows, pivots): nonzero canonical rows and their pivot columns.
    The input list is not modified.
    """
    zero, sub, mul = field.zero, field.sub, field.mul
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for j in range(n):
        sel = next((i for i in range(r, m) if rows[i][j] != zero), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = field.inv(rows[r][j])
        prow = rows[r]
        # the pivot row is zero left of j; only its nonzero columns move others
        support = [k for k in range(j, n) if prow[k] != zero]
        for k in support:
            prow[k] = mul(inv, prow[k])
        for i in range(m):
            if i != r and rows[i][j] != zero:
                row = rows[i]
                f = row[j]
                for k in support:
                    row[k] = sub(row[k], mul(f, prow[k]))
        pivots.append(j)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def echelon_tails(field, rows):
    """(pivot, tail) of each echelon row: the column of its first nonzero
    entry and the nonzero (k, c) right of it, all `echelon_reduce` reads."""
    zero = field.zero
    pivots = (next(k for k, c in enumerate(row) if c != zero) for row in rows)
    return [(pj, [(k, c) for k, c in enumerate(row[pj + 1:], pj + 1) if c != zero])
            for pj, row in zip(pivots, rows)]


def echelon_reduce(field, tails, vec):
    """The nonzero entries {k: c} of vec minus its components along echelon
    rows whose pivot entries are one, given by their `echelon_tails`: the
    canonical representative of vec modulo their span.  vec is given by its
    nonzero entries too, as a dict or as (k, c) pairs; a zero result is {},
    and no entry that cancels is kept."""
    zero, sub, mul = field.zero, field.sub, field.mul
    work = dict(vec)
    for pj, tail in tails:
        f = work.pop(pj, zero)
        if f != zero:
            for k, c in tail:
                work[k] = sub(work.get(k, zero), mul(f, c))
    return {k: c for k, c in work.items() if c != zero}


def rank(mat):
    return len(rref_rows(mat.field, mat.rows)[1])


# Points tried by point_rank, in order, as integers read in the base field
# (elements of GF(p) over GF(p)); one variable takes the first coordinate.
_RANK_POINTS = ((3, 5), (5, 7), (7, 3))


def point_rank(mat):
    """Rank of a matrix over k(vars) at the first point of _RANK_POINTS
    where no entry has a pole; None over any other field, or when every
    point is a pole of some entry.

    One-directional: a minor nonzero at a point is a nonzero rational
    function, so the rank over k(vars) is at least this.  Callers use it
    only to confirm the largest rank the matrix can have; a smaller value
    decides nothing, and the exact elimination runs.
    """
    F = mat.field
    if not isinstance(F, FuncField):
        return None
    base = F.base
    tried = []
    for coords in _RANK_POINTS:
        point = tuple(base.from_int(c) for c in coords[:F.nv])
        if point in tried:  # small integers can coincide in GF(p)
            continue
        tried.append(point)
        rows = []
        for row in mat.rows:
            vals = [base.zero if F.is_zero(a) else F.evaluate(a, point) for a in row]
            if None in vals:
                break
            rows.append(vals)
        else:
            return rank(Matrix(base, rows))
    return None


def kernel_basis(mat):
    """Canonical basis of {v : mat v = 0}, returned as a list of vectors."""
    F = mat.field
    rows, pivots = rref_rows(F, mat.rows) if mat.rows else ([], [])
    n = mat.ncols
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for j in free:
        v = [F.zero] * n
        v[j] = F.one
        for r, pj in zip(rows, pivots):
            v[pj] = F.neg(r[j])
        basis.append(v)
    if not basis:
        return []
    canon, _ = rref_rows(F, basis)
    return canon


def solve(mat, rhs):
    """The unique solution of mat x = rhs, read off one reduced echelon form
    of [mat | rhs]; raises Inconsistent when there is none or more than
    one."""
    if len(rhs) != mat.nrows:
        raise DimensionMismatch("right-hand side length mismatch")
    n = mat.ncols
    rows, pivots = rref_rows(mat.field, [row + [b] for row, b in zip(mat.rows, rhs)])
    if n in pivots:
        raise Inconsistent("linear system has no solution")
    if len(pivots) < n:
        raise Inconsistent("linear system has more than one solution")
    return [r[n] for r in rows]


def inverse(mat):
    """mat^-1 read off one reduced echelon form of [mat | I], which is
    [I | mat^-1] exactly when mat is invertible; raises NotSquare for a
    non-square matrix and Inconsistent for a singular one."""
    F = mat.field
    n = mat.nrows
    if n != mat.ncols:
        raise NotSquare("inverse of a non-square matrix")
    ident = Matrix.identity(F, n).rows
    rows, pivots = rref_rows(F, [row + e for row, e in zip(mat.rows, ident)])
    if pivots[:n] != list(range(n)):
        raise Inconsistent("matrix is singular")
    return Matrix(F, [row[n:] for row in rows])


def det(mat):
    """Determinant by Gaussian elimination with row swaps.

    Over a FuncField the pivot of column j is the entry of shortest
    numerator plus denominator (dense length in one variable, term count in
    two), the first such row winning ties; over other fields it is the first
    nonzero entry.  The determinant does not depend on the pivot order and
    each swap flips the sign, so the value is the same either way; over k(d)
    every non-polynomial result costs a gcd, and a short pivot keeps the
    Schur complements short."""
    F = mat.field
    n = mat.nrows
    if n != mat.ncols:
        raise NotSquare("determinant of a non-square matrix")
    size = (lambda a: len(a[0]) + len(a[1])) if isinstance(F, FuncField) else (lambda a: 0)
    rows = [list(r) for r in mat.rows]
    sign = False
    d = F.one
    for j in range(n):
        sel = min((i for i in range(j, n) if not F.is_zero(rows[i][j])),
                  key=lambda i: size(rows[i][j]), default=None)
        if sel is None:
            return F.zero
        if sel != j:
            rows[j], rows[sel] = rows[sel], rows[j]
            sign = not sign
        prow = rows[j]
        d = F.mul(d, prow[j])
        inv = F.inv(prow[j])
        # columns up to j are never read again: update right of the pivot only
        support = [k for k in range(j + 1, n) if not F.is_zero(prow[k])]
        for row in rows[j + 1:]:
            if not F.is_zero(row[j]):
                f = F.mul(row[j], inv)
                for k in support:
                    row[k] = F.sub(row[k], F.mul(f, prow[k]))
    return F.neg(d) if sign else d


def char_poly(mat):
    """Monic characteristic polynomial det(xI - A) by Berkowitz's
    division-free algorithm (Berkowitz 1984, Inf. Process. Lett. 18).

    Only additions and multiplications occur, so over k(d) no entry ever
    needs a gcd and coefficients cannot swell through divisions.  Returned
    as a dense univariate polynomial over the matrix field (coefficient
    tuple, constant term first).
    """
    F = mat.field
    if mat.nrows != mat.ncols:
        raise NotSquare("characteristic polynomial of a non-square matrix")
    A = mat.rows
    add, mul, neg, zero = F.add, F.mul, F.neg, F.zero

    def dot(r, v):  # r is cut to len(v)
        acc = zero
        for a, b in zip(r, v):
            if a != zero and b != zero:
                acc = add(acc, mul(a, b))
        return acc

    p = [F.one]  # det(xI - A_k) of the leading k x k block, leading coefficient first
    for k in range(len(A)):
        # the leading (k+1) x (k+1) block is [[A_k, col], [row, A[k][k]]];
        # its polynomial is T p for the Toeplitz column
        # t = (1, -A[k][k], -row col, -row A_k col, ..., -row A_k^(k-1) col)
        rows = A[:k]
        row, v = A[k], [r[k] for r in rows]
        t = [F.one, neg(A[k][k])]
        for j in range(k):
            t.append(neg(dot(row, v)))
            if j + 1 < k:
                v = [dot(r, v) for r in rows]
        new = []
        for i in range(k + 2):
            acc = zero
            for j in range(min(i, k) + 1):
                if t[i - j] != zero and p[j] != zero:
                    acc = add(acc, mul(t[i - j], p[j]))
            new.append(acc)
        p = new
    return tuple(reversed(p))


def eval_poly_at_matrix(field, poly, mat):
    """poly(mat) for a dense univariate poly; used by tests and the chop.
    Horner's rule starts at lead·mat and adds each lower coefficient on the
    diagonal, so a degree-k poly takes k - 1 matrix products."""
    F = field
    n = mat.nrows
    if len(poly) < 2:
        return Matrix.identity(F, n).scale(poly[0] if poly else F.zero)
    acc = mat.scale(poly[-1])
    for k, c in enumerate(reversed(poly[:-1])):
        if k:
            acc = acc.mul(mat)
        if not F.is_zero(c):
            acc = Matrix(F, [[F.add(a, c) if i == j else a for j, a in enumerate(r)]
                             for i, r in enumerate(acc.rows)])
    return acc


# --- Hermite normal form over Z and k[x] ---------------------------------------

@dataclass
class HermiteResult:
    basis: list       # nonzero canonical rows
    transform: list   # rows of the unimodular W with rows = W[:r]^T G (see below)


def hermite_normal_form(E, rows):
    """Row Hermite normal form over a Euclidean ring, on its plain data.

    E is the `ops` of `RingDescriptor.plain` for Z, a field or k[x]
    (IntegerOps, the field itself, DenseKernels) and rows are lists of that
    plain data.  Pivots are canonical (positive over Z, monic over k[x], one
    over a field) and entries above a pivot are reduced modulo it, so the
    basis is the unique Hermite basis of the row lattice.

    The transform W is unimodular with rows = W[:r]^T G, for r the rank and
    G the echelon form before the pivots are normalized and the entries
    above them reduced.  W tracks the inverse transpose of the swaps and of
    the eliminations below each pivot: a swap of two rows swaps them in W,
    and row_i -= q row_r is W_r += q W_i.  The normalization and the
    reduction above the pivots only mix the first r rows, so they change
    neither the span of W[:r] nor the rows W[r:], and W skips them.
    """
    work = [list(r) for r in rows]
    m = len(work)
    n = len(work[0]) if work else 0
    W = [[E.one if j == i else E.zero for j in range(m)] for i in range(m)]
    r = 0
    for j in range(n):
        while True:
            live = [i for i in range(r, m) if not E.is_zero(work[i][j])]
            if not live:
                break
            sel = min(live, key=lambda i: (E.euclid_size(work[i][j]), i))
            if sel != r:
                work[r], work[sel] = work[sel], work[r]
                W[r], W[sel] = W[sel], W[r]
            piv = work[r][j]
            done = True
            for i in range(r + 1, m):
                if E.is_zero(work[i][j]):
                    continue
                q, rem = E.divmod(work[i][j], piv)
                work[i] = [E.sub(a, E.mul(q, b)) for a, b in zip(work[i], work[r])]
                W[r] = [E.add(a, E.mul(q, b)) for a, b in zip(W[r], W[i])]
                if not E.is_zero(rem):
                    done = False
            if done:
                break
        if r < m and not E.is_zero(work[r][j]):
            u, _ = E.unit_normalize(work[r][j])
            if not E.is_zero(E.sub(u, E.one)):
                work[r] = [E.mul(u, a) for a in work[r]]
            piv = work[r][j]
            for i in range(r):
                if E.is_zero(work[i][j]):
                    continue
                q, _ = E.divmod(work[i][j], piv)
                if E.is_zero(q):
                    continue
                work[i] = [E.sub(a, E.mul(q, b)) for a, b in zip(work[i], work[r])]
            r += 1
            if r == m:
                break
    return HermiteResult(work[:r], W)


def saturate_rows(E, rows):
    """(saturation, complement) of the row lattice L in R^n (K the fraction
    field), rows and results in the plain data of E, both read off one
    Hermite split of rows^T of rank r.  Its transform W is unimodular with
    rows^T = W[:r]^T G for a G of rank r, so the rows of W[:r] span L over
    K; as rows of a unimodular matrix they span L_K meet R^n and extend, by
    W[r:], to a basis of R^n.  So the saturation is the Hermite basis of
    W[:r], and W[r:] represent a free complement."""
    res = hermite_normal_form(E, [list(c) for c in zip(*rows)])
    r = len(res.basis)
    return hermite_normal_form(E, res.transform[:r]).basis, res.transform[r:]


# --- gcd-free bases --------------------------------------------------------------

def coprime_base(k, polys):
    """Pairwise coprime nonconstant pieces such that every nonzero input is
    a unit times a product of their powers: the factor refinement of Bach,
    Driscoll and Shallit (J. Algorithms 15, 1993), which replaces two pieces
    f, g with a nonconstant gcd d by d, g/d and f/d.

    k is a kernel set over a field (fields.DenseKernels or SparseKernels)
    and the polynomials are its data, refined in the order given."""
    queue = [f for f in polys if not k.is_const(f)]
    basis = []
    guard = 0
    while queue:
        guard += 1
        if guard > 10000:
            raise EngineError("coprime refinement did not stabilize")
        f = queue.pop(0)
        for i, g in enumerate(basis):
            d = k.gcd(f, g)
            if not k.is_const(d):
                del basis[i]
                queue.extend(part for part in (d, k.exact_div(g, d), k.exact_div(f, d))
                             if not k.is_const(part))
                break
        else:
            basis.append(f)
    return basis


@dataclass
class GcdFreeBasis:
    field: object
    basis: tuple      # pairwise coprime nonconstant monic dense polynomials
    units: tuple      # leading coefficients of the inputs
    mults: tuple      # one multiplicity vector per input, aligned with basis


def gcd_free_basis(field, polys):
    """Coarsest gcd-free refinement of a family of nonzero univariate
    polynomials, with squarefree splitting where derivatives allow it: the
    `coprime_base` of their monic forms and squarefree parts, in canonical
    order, with the multiplicity vector of each input (an input repeated,
    or repeated up to a unit, shares the row of its monic form)."""
    from .factor import squarefree_part_safe

    F = field
    units = tuple(p[-1] for p in polys)
    monics = [P.umonic(F, p) for p in polys]
    work = {m for m in monics if P.udeg(m) >= 1}
    for m in list(work):
        s = squarefree_part_safe(F, m)
        if P.udeg(s) >= 1:
            work.add(s)
    key = lambda p: P.ukey(F, p)
    basis = sorted(coprime_base(DenseKernels(F), sorted(work, key=key)), key=key)
    rows = {}
    for m in dict.fromkeys(monics):
        row = []
        rem = m
        for g in basis:
            k = 0
            while P.udeg(rem) >= P.udeg(g):
                q, r = P.udivmod(F, rem, g)
                if r:
                    break
                rem = q
                k += 1
            row.append(k)
        if P.udeg(rem) != 0:
            raise Inconsistent("gcd-free basis does not reconstruct an input")
        rows[m] = tuple(row)
    return GcdFreeBasis(F, tuple(basis), units, tuple(rows[m] for m in monics))
