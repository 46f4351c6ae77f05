"""Finite free algebras by structure constants, their fibers and subspaces.

An algebra is a free module D^n with a multiplication table: basis vectors
b_i, products b_i b_j = sum_k c[i][j][k] b_k, a distinguished unit vector,
and optionally a symmetrizing trace vector.  One table type serves both
scalar domains the engine meets: the base ring R (scalars are RingElements,
arithmetic through a RingScalars view) and a field (scalars are the field's
plain data).  The fiber A(p) = k(p) (x) A is the same table with reduced
coefficients over the residue field k(p).  A table is read through its
nonzero constants (`terms`): a fiber or a restriction is mapped from them
and carries only them, and its dense `sc` is built from them on first use.

Associativity and the unit law are verified eagerly at load time; silent
non-associativity would poison every computation downstream.  Because
reduction is a ring homomorphism the fiber of a valid algebra is valid;
construction sites that build tables from scratch validate, specialization
inherits.
"""

from functools import cached_property

from .errors import (
    BadTraceForm,
    NoUnit,
    NotAssociative,
    UnsupportedRing,
    ValidationError,
)
from .linalg import (
    Matrix,
    det,
    echelon_tails,
    inverse,
    rref_rows,
)
from .primes import generic_point, quotient_chain, reduce_elem
from .rings import RingDescriptor, RingScalars


class TableKey:
    """Content key of one structure-constant table, (field, dim, terms,
    unit): scalars are canonical and a zero constant has no term, so two
    keys are equal exactly when the dense tables are.  The hash is taken
    once, when the key is built; equality still compares the content, so
    two tables whose hashes collide never share a memo entry."""

    __slots__ = ("content", "_hash")

    def __init__(self, field, dim, terms, unit):
        self.content = (field, dim, terms, unit)
        self._hash = hash(self.content)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, TableKey):
            return NotImplemented
        return self._hash == other._hash and self.content == other.content


class FiniteFreeAlgebra:
    """Structure-constant table over a base: a RingDescriptor (the algebra
    over R; `ring` is set, `field` is None) or a field (a fiber; `field` is
    set, `ring` is None, and `prime` records the point it lies over)."""

    def __init__(self, name, base, basis_names, sc, unit, trace_vector=None, validate=True,
                 prime=None):
        self.name = name
        if isinstance(base, RingDescriptor):
            self.ring, self.field, self.domain = base, None, RingScalars(base)
        else:
            self.ring, self.field, self.domain = None, base, base
        self.prime = prime  # PrimeSpec or None: the point a fiber lies over
        self.basis_names = tuple(basis_names)
        self.dim = len(self.basis_names)
        if sc is not None:  # None: the caller sets terms
            self.sc = sc
        self.unit = tuple(unit)
        self.trace_vector = tuple(trace_vector) if trace_vector is not None else None
        self.analyses = {}  # the modules._per_table memo, shared through _map_table
        self._generic_fiber = None
        if validate:
            self._validate()

    @property
    def over_field(self):
        return self.domain.is_field

    @cached_property
    def table_key(self):
        """The TableKey of this table, built on first use and kept."""
        return TableKey(self.field, self.dim, self.terms, self.unit)

    @cached_property
    def sc(self):
        """sc[i][j][k]: scalar of the domain, built from `terms` on first
        use for a table that carries only them."""
        zero, n = self.domain.zero, self.dim
        return tuple(tuple(tuple(dict(ts).get(k, zero) for k in range(n)) for ts in plane)
                     for plane in self.terms)

    @cached_property
    def terms(self):
        """terms[i][j]: the nonzero (k, c[i][j][k]) of b_i b_j, k ascending.
        Table loops iterate these instead of scanning the zero constants."""
        is_zero = self.domain.is_zero
        return tuple(tuple(tuple((k, c) for k, c in enumerate(cs) if not is_zero(c))
                           for cs in plane) for plane in self.sc)

    # vector arithmetic over the scalar domain

    def basis_vector(self, i):
        v = [self.domain.zero] * self.dim
        v[i] = self.domain.one
        return v

    def vec_mul(self, x, y):
        D = self.domain
        add, mul, is_zero = D.add, D.mul, D.is_zero
        out = [D.zero] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y) if not is_zero(yj)]
        for xi, row in zip(x, self.terms):
            if is_zero(xi):
                continue
            for j, yj in ys:
                ts = row[j]
                if ts:
                    coef = mul(xi, yj)
                    for k, c in ts:
                        out[k] = add(out[k], mul(coef, c))
        return out

    def left_regular_matrix(self, x):
        F = self.field
        n = self.dim
        rows = [[F.zero] * n for _ in range(n)]
        for xi, row in zip(x, self.terms):
            if F.is_zero(xi):
                continue
            for j, ts in enumerate(row):
                for k, c in ts:
                    rows[k][j] = F.add(rows[k][j], F.mul(xi, c))
        return Matrix(F, rows)

    def _validate(self):
        n = self.dim
        if (len(self.unit) != n or len(self.sc) != n
                or any(len(plane) != n or any(len(r) != n for r in plane) for plane in self.sc)):
            raise NoUnit("unit or table has the wrong length")
        unit = list(self.unit)
        for i in range(n):
            e = self.basis_vector(i)
            if self.vec_mul(unit, e) != e or self.vec_mul(e, unit) != e:
                raise NoUnit(f"unit law fails on basis element {self.basis_names[i]}")
        # (b_i b_j) b_k = sum_l c[i][j][l] b_l b_k and
        # b_i (b_j b_k) = sum_l c[j][k][l] b_i b_l, compared term by term
        # on plain data (see RingDescriptor.plain), not on RingElements.
        # When b_i b_j, b_j b_k and the two entries they pick have at most
        # one term each, each side is zero or one pair (index, c e): two zero
        # sides, or two pairs with the same index and product, are equal, and
        # each product c e is taken once per distinct (c, e).  Every other
        # triple goes through _combine, which also settles pairs that only
        # look unequal because a product c e is zero.
        if self.over_field:
            D, terms = self.domain, self.terms
        else:
            D, to_plain, _ = self.ring.plain()
            terms = tuple(tuple(tuple((k, to_plain(c)) for k, c in ts) for ts in plane)
                          for plane in self.terms)
        mul, products = D.mul, {}

        def product(key):
            p = products.get(key)
            if p is None:
                p = products[key] = mul(*key)
            return p

        for i in range(n):
            row_i = terms[i]
            for j in range(n):
                ij, row_j = row_i[j], terms[j]
                for k in range(n):
                    jk = row_j[k]
                    if len(ij) < 2 and len(jk) < 2:
                        lt = terms[ij[0][0]][k] if ij else ()
                        rt = row_i[jk[0][0]] if jk else ()
                        if len(lt) < 2 and len(rt) < 2:
                            if not lt and not rt:
                                continue
                            if (lt and rt and lt[0][0] == rt[0][0]
                                    and product((ij[0][1], lt[0][1]))
                                    == product((jk[0][1], rt[0][1]))):
                                continue
                    left = _combine(D, ((c, terms[l][k]) for l, c in ij))
                    if left != _combine(D, ((c, row_i[l]) for l, c in jk)):
                        raise NotAssociative(
                            f"(b{i} b{j}) b{k} != b{i} (b{j} b{k}) in {self.name}")
        # a fiber's trace form may degenerate (that locus is the discriminant);
        # over R it must be nondegenerate over the fraction field
        if self.trace_vector is not None and not self.over_field:
            self._validate_trace()

    def form_gram(self, t):
        """G[i][j] = sum_k c[i][j][k] t[k], the Gram matrix of (x, y) -> t(xy)
        for a linear form given by its values t[k] on the basis."""
        D = self.domain
        add, mul, is_zero = D.add, D.mul, D.is_zero
        gram = []
        for plane in self.terms:
            row = []
            for ts in plane:
                acc = D.zero
                for k, c in ts:
                    if not is_zero(t[k]):
                        acc = add(acc, mul(c, t[k]))
                row.append(acc)
            gram.append(row)
        return gram

    def _validate_trace(self):
        n = self.dim
        gram = self.form_gram(self.trace_vector)
        for i in range(n):
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise BadTraceForm("trace form is not symmetric")
        K = self.ring.fraction_field()
        m = Matrix(K, [[self.ring.to_field(gram[i][j]) for j in range(n)] for i in range(n)])
        if K.is_zero(det(m)):
            raise BadTraceForm("trace form is degenerate over the fraction field")
        self._gram_ring = gram

    def trace_gram_ring(self):
        if self.trace_vector is None:
            raise BadTraceForm(f"{self.name} carries no trace vector")
        if not hasattr(self, "_gram_ring"):
            self._validate_trace()
        return self._gram_ring

    def generic_fiber(self):
        if self._generic_fiber is None:
            self._generic_fiber = specialize(self, generic_point(self.ring))
        return self._generic_fiber

    def __repr__(self):
        if not self.over_field:
            return f"<algebra {self.name}: dim {self.dim} over {self.ring!r}>"
        at = "generic" if self.prime is None or self.prime.is_generic else self.prime.short_str()
        return f"<fiber {self.name} at {at}: dim {self.dim} over {self.field!r}>"


def _combine(D, scaled):
    """sum of c * v over the (c, v) pairs, each v a terms entry, as a
    {k: nonzero coefficient} dict over the scalar domain D."""
    add, mul = D.add, D.mul
    acc = {}
    for c, ts in scaled:
        for k, e in ts:
            acc[k] = add(acc[k], mul(c, e)) if k in acc else mul(c, e)
    return {k: v for k, v in acc.items() if not D.is_zero(v)}


def _map_table(A, f, name, base, prime=None, validate=False):
    """A's table with every coefficient (structure constants, unit, trace
    vector) sent through f, as a table over base.  f is a ring homomorphism,
    so a zero constant maps to zero and is never mapped; f runs once per
    distinct coefficient, and the image carries only its terms: A.terms
    less the constants f sends to zero."""
    image = {}

    def g(c):
        e = image.get(c)
        if e is None:
            e = image[c] = f(c)
        return e

    unit = tuple(g(u) for u in A.unit)
    tv = tuple(g(t) for t in A.trace_vector) if A.trace_vector is not None else None
    B = FiniteFreeAlgebra(name, base, A.basis_names, None, unit, tv, validate=False, prime=prime)
    is_zero = B.domain.is_zero
    B.terms = tuple(tuple(tuple((k, e) for k, c in ts for e in (g(c),) if not is_zero(e))
                          for ts in plane) for plane in A.terms)
    if validate:
        B._validate()
    B.analyses = A.analyses
    return B


def specialize(A, p, validate=False):
    """The fiber of A at the prime p: same table over the residue field.

    Reduction is a ring homomorphism, so validity is inherited from the
    (eagerly validated) algebra; pass validate=True to re-check anyway.
    """
    if p.ring != A.ring:
        raise UnsupportedRing(f"prime of {p.ring!r} applied to algebra over {A.ring!r}")
    return _map_table(A, lambda c: reduce_elem(c, p), A.name, p.residue_field, prime=p,
                      validate=validate)


def restrict(A, p):
    """A over R/p, for primes whose quotient is again a supported ring."""
    if p.is_generic:
        return A
    cur, push = quotient_chain(A.ring, p.generators)
    return _map_table(A, push, f"{A.name}|{p.short_str()}", cur)


# --- subspaces of fibers -------------------------------------------------------

class SubLattice:
    """Subspace of a fiber, as its canonical reduced echelon rows."""

    def __init__(self, ambient, rows):
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rows)

    @property
    def dim(self):
        return len(self.rows)

    def __eq__(self, other):
        return isinstance(other, SubLattice) and self.rows == other.rows

    def __repr__(self):
        return f"<subspace of dim {self.dim} in dim-{self.ambient.dim} ambient>"

    @cached_property
    def pivots(self):
        """Pivot columns of the echelon rows, found once."""
        return [pj for pj, _ in echelon_tails(self.ambient.field, self.rows)]


def span_subspace(fiber, vectors):
    """Canonical span of the vectors in a fiber: its reduced echelon rows."""
    rows, _ = rref_rows(fiber.field, list(vectors)) if vectors else ([], [])
    return SubLattice(fiber, rows)


def table_on_basis(fiber, basis, m):
    """(sc, unit) of the fiber's table on the first m of the basis vectors,
    modulo the span of the rest.  The coordinates of a vector on the whole
    basis are one product with the inverse of the matrix whose columns are
    the basis vectors, so the table reads off one `inverse`; raises
    Inconsistent when the vectors are not a basis."""
    F = fiber.field
    coords = Matrix(F, inverse(Matrix(F, basis).transpose()).rows[:m])
    vecs = [list(v) for v in basis[:m]]
    sc = tuple(tuple(tuple(coords.apply(fiber.vec_mul(a, b))) for b in vecs) for a in vecs)
    return sc, tuple(coords.apply(list(fiber.unit)))


# --- definition files -------------------------------------------------------------

def serialize_algebra(A):
    """Canonical text form of an algebra definition; loading it back gives a
    bit-identical object, which is what the golden tests pin down."""
    lines = [f"algebra {A.name}", f"ring {A.ring!r}",
             "basis " + " ".join(A.basis_names),
             "unit " + ", ".join(str(c) for c in A.unit)]
    if A.trace_vector is not None:
        lines.append("trace " + ", ".join(str(c) for c in A.trace_vector))
    n = A.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = A.sc[i][j][k]
                if not c.is_zero():
                    lines.append(f"mul {i} {j} {k} {c}")
    return "\n".join(lines) + "\n"


def load_algebra(text, validate=True):
    """Parse and validate an algebra definition (see serialize_algebra).
    Malformed lines raise ValidationError naming the line number."""
    name = None
    ring = None
    basis = None
    unit = None
    trace = None
    muls = {}  # (i, j, k) -> (line number, coefficient text)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "algebra":
            name = rest
        elif head == "ring":
            from .rings import parse_ring

            ring = parse_ring(rest)
        elif head == "basis":
            basis = tuple(rest.split())
            for b in basis:
                if basis.count(b) > 1:
                    raise ValidationError(f"line {lineno}: basis name {b!r} is repeated")
        elif head == "unit":
            unit = (lineno, [p.strip() for p in rest.split(",")])
        elif head == "trace":
            trace = (lineno, [p.strip() for p in rest.split(",")])
        elif head == "mul":
            fields = rest.split(maxsplit=3)
            if len(fields) != 4:
                raise ValidationError(f"line {lineno}: expected 'mul i j k coefficient'")
            try:
                ijk = tuple(int(f) for f in fields[:3])
            except ValueError:
                raise ValidationError(
                    f"line {lineno}: mul indices must be integers, got {' '.join(fields[:3])!r}"
                ) from None
            if ijk in muls:
                raise ValidationError(
                    f"line {lineno}: mul {' '.join(map(str, ijk))} repeats line {muls[ijk][0]}")
            muls[ijk] = (lineno, fields[3])
        else:
            raise ValidationError(f"line {lineno}: unknown definition line {line!r}")
    if name is None or ring is None or basis is None or unit is None:
        raise NoUnit("definition must provide algebra, ring, basis and unit lines")
    n = len(basis)
    if len(unit[1]) != n or (trace is not None and len(trace[1]) != n):
        raise NoUnit("unit/trace length does not match the basis")

    parsed = {}  # coefficient text -> RingElement: each distinct text parsed once

    def parse(lineno, expr):
        c = parsed.get(expr)
        if c is None:
            try:
                c = parsed[expr] = ring.parse(expr)
            except ValidationError as e:
                raise ValidationError(f"line {lineno}: {e}") from None
        return c

    # RingElements are immutable, so every zero entry is the one ring.zero()
    zero = ring.zero()
    sc = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), (lineno, expr) in muls.items():
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise NotAssociative(f"line {lineno}: mul indices {i} {j} {k} out of range")
        sc[i][j][k] = parse(lineno, expr)
    sc = tuple(tuple(tuple(row) for row in plane) for plane in sc)
    unit_v = [parse(unit[0], e) for e in unit[1]]
    trace_v = [parse(trace[0], e) for e in trace[1]] if trace is not None else None
    return FiniteFreeAlgebra(name, ring, basis, sc, unit_v, trace_v, validate=validate)


def load_algebra_file(path, validate=True):
    with open(path, "r", encoding="utf-8") as fh:
        return load_algebra(fh.read(), validate=validate)


def nilpotency_index(fiber, lattice):
    """Smallest N with lattice^N = 0 for a subspace of a fiber, or None when
    the powers stabilize at a nonzero subspace.  lattice^(k+1) is the span
    of the y·x, one `apply` of the left regular matrix of a lattice row y to
    a row x of lattice^k: by associativity, of all (k+1)-fold products."""
    if lattice.dim == 0:
        return 1
    lefts = [fiber.left_regular_matrix(y) for y in lattice.rows]
    power = lattice
    n = 1
    while True:
        nxt = span_subspace(fiber, [L.apply(x) for x in power.rows for L in lefts])
        n += 1
        if nxt.dim == 0:
            return n
        # powers of an ideal are nested, so a stable dimension means stable
        if nxt.dim == power.dim:
            return None
        power = nxt
