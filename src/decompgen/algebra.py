"""Finite free algebras by structure constants, their fibers and lattices.

An algebra is a free module R^n with a multiplication table: basis vectors
b_i, products b_i b_j = sum_k c[i][j][k] b_k, a distinguished unit vector,
and optionally a symmetrizing trace vector.  Associativity and the unit law
are verified eagerly at load time; silent non-associativity would poison
every computation downstream.

Fibers (scalar extensions to residue fields of primes) carry the same table
with reduced coefficients.  Because reduction is a ring homomorphism the
fiber of a valid algebra is valid; construction sites that build tables
from scratch validate, specialization inherits.
"""

from .errors import (
    BadTraceForm,
    NoUnit,
    NotAssociative,
    UnitInIdeal,
    UnsupportedRing,
)
from .linalg import Matrix, det, echelon_reduce, hermite_normal_form, pivot_columns, rref_rows
from .primes import generic_point, quotient_chain, reduce_elem
from .rings import EuclideanRing


class FiniteFreeAlgebra:
    def __init__(self, name, ring, basis_names, sc, unit, trace_vector=None, validate=True):
        self.name = name
        self.ring = ring
        self.basis_names = tuple(basis_names)
        self.dim = len(self.basis_names)
        self.sc = sc  # sc[i][j][k]: RingElement
        self.unit = tuple(unit)
        self.trace_vector = tuple(trace_vector) if trace_vector is not None else None
        if validate:
            self._validate()

    # vector arithmetic over the base ring

    def vec_zero(self):
        z = self.ring.zero()
        return [z] * self.dim

    def vec_mul(self, x, y):
        n = self.dim
        out = self.vec_zero()
        for i in range(n):
            xi = x[i]
            if xi.is_zero():
                continue
            row = self.sc[i]
            for j in range(n):
                yj = y[j]
                if yj.is_zero():
                    continue
                coef = xi * yj
                for k in range(n):
                    c = row[j][k]
                    if not c.is_zero():
                        out[k] = out[k] + coef * c
        return out

    def basis_vector(self, i):
        v = self.vec_zero()
        v[i] = self.ring.one()
        return v

    def _validate(self):
        n = self.dim
        if len(self.unit) != n or any(len(self.sc[i][j]) != n for i in range(n) for j in range(n)):
            raise NoUnit("unit or table has the wrong length")
        for i in range(n):
            e = self.basis_vector(i)
            if self.vec_mul(list(self.unit), e) != e or self.vec_mul(e, list(self.unit)) != e:
                raise NoUnit(f"unit law fails on basis element {self.basis_names[i]}")
        for i in range(n):
            bi = self.basis_vector(i)
            for j in range(n):
                bij = [self.sc[i][j][k] for k in range(n)]
                for k in range(n):
                    bk = self.basis_vector(k)
                    left = self.vec_mul(bij, bk)
                    right = self.vec_mul(bi, [self.sc[j][k][m] for m in range(n)])
                    if left != right:
                        raise NotAssociative(
                            f"(b{i} b{j}) b{k} != b{i} (b{j} b{k}) in {self.name}")
        if self.trace_vector is not None:
            self._validate_trace()

    def _validate_trace(self):
        n = self.dim
        t = self.trace_vector
        gram = [[self.ring.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = self.ring.zero()
                for k in range(n):
                    c = self.sc[i][j][k]
                    if not c.is_zero():
                        acc = acc + c * t[k]
                gram[i][j] = acc
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
        return specialize(self, generic_point(self.ring))

    def __repr__(self):
        return f"<algebra {self.name}: dim {self.dim} over {self.ring!r}>"


class FiberAlgebra:
    def __init__(self, field, basis_names, sc, unit, provenance, trace_vector=None, validate=True):
        self.field = field
        self.basis_names = tuple(basis_names)
        self.dim = len(self.basis_names)
        self.sc = sc  # field scalars
        self.unit = tuple(unit)
        self.provenance = provenance  # (algebra name, PrimeSpec or None)
        self.trace_vector = tuple(trace_vector) if trace_vector is not None else None
        if validate:
            self._validate()

    def vec_zero(self):
        return [self.field.zero] * self.dim

    def basis_vector(self, i):
        v = self.vec_zero()
        v[i] = self.field.one
        return v

    def vec_mul(self, x, y):
        F = self.field
        n = self.dim
        out = self.vec_zero()
        for i in range(n):
            if F.is_zero(x[i]):
                continue
            row = self.sc[i]
            for j in range(n):
                if F.is_zero(y[j]):
                    continue
                coef = F.mul(x[i], y[j])
                for k in range(n):
                    c = row[j][k]
                    if not F.is_zero(c):
                        out[k] = F.add(out[k], F.mul(coef, c))
        return out

    def left_regular_matrix(self, x):
        F = self.field
        n = self.dim
        rows = [[F.zero] * n for _ in range(n)]
        for i in range(n):
            if F.is_zero(x[i]):
                continue
            for j in range(n):
                for k in range(n):
                    c = self.sc[i][j][k]
                    if not F.is_zero(c):
                        rows[k][j] = F.add(rows[k][j], F.mul(x[i], c))
        return Matrix(F, rows)

    def _validate(self):
        F = self.field
        n = self.dim
        for i in range(n):
            e = self.basis_vector(i)
            if self.vec_mul(list(self.unit), e) != e or self.vec_mul(e, list(self.unit)) != e:
                raise NoUnit("unit law fails in fiber")
        for i in range(n):
            bi = self.basis_vector(i)
            for j in range(n):
                bij = list(self.sc[i][j])
                for k in range(n):
                    bk = self.basis_vector(k)
                    if self.vec_mul(bij, bk) != self.vec_mul(bi, list(self.sc[j][k])):
                        raise NotAssociative("fiber table is not associative")

    def __repr__(self):
        name, spec = self.provenance
        at = "generic" if spec is None or spec.is_generic else spec.short_str()
        return f"<fiber {name} at {at}: dim {self.dim} over {self.field!r}>"


def specialize(A, p, validate=False):
    """The fiber of A at the prime p: same table over the residue field.

    Reduction is a ring homomorphism, so validity is inherited from the
    (eagerly validated) algebra; pass validate=True to re-check anyway.
    """
    if p.ring != A.ring:
        raise UnsupportedRing(f"prime of {p.ring!r} applied to algebra over {A.ring!r}")
    n = A.dim
    sc = tuple(
        tuple(tuple(reduce_elem(A.sc[i][j][k], p) for k in range(n)) for j in range(n))
        for i in range(n)
    )
    unit = tuple(reduce_elem(u, p) for u in A.unit)
    tv = tuple(reduce_elem(t, p) for t in A.trace_vector) if A.trace_vector is not None else None
    return FiberAlgebra(p.residue_field, A.basis_names, sc, unit, (A.name, p), tv,
                        validate=validate)


def restrict(A, p):
    """A over R/p, for primes whose quotient is again a supported ring."""
    if p.is_generic:
        return A
    cur, push = quotient_chain(A.ring, p.generators)
    n = A.dim
    sc = tuple(
        tuple(tuple(push(A.sc[i][j][k]) for k in range(n)) for j in range(n))
        for i in range(n)
    )
    unit = tuple(push(u) for u in A.unit)
    tv = tuple(push(t) for t in A.trace_vector) if A.trace_vector is not None else None
    name = f"{A.name}|{p.short_str()}"
    return FiniteFreeAlgebra(name, cur, A.basis_names, sc, unit, tv, validate=False)


# --- sublattices and ideals -----------------------------------------------------

class SubLattice:
    """Subspace of a fiber (canonical reduced echelon rows) or sublattice of
    an algebra over Z / k[x] (canonical Hermite rows of ring elements)."""

    def __init__(self, ambient, rows, over_field, saturated=False):
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rows)
        self.over_field = over_field
        self.saturated = saturated

    @property
    def dim(self):
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, SubLattice)
            and self.over_field == other.over_field
            and self.rows == other.rows
        )

    def __repr__(self):
        kind = "subspace" if self.over_field else "lattice"
        return f"<{kind} of dim {self.dim} in dim-{self.ambient.dim} ambient>"

    def contains_vector(self, vec):
        if self.over_field:
            F = self.ambient.field
            work = echelon_reduce(F, self.rows, pivot_columns(F, self.rows), vec)
            return all(F.is_zero(c) for c in work)
        from .linalg import lattice_member

        E = EuclideanRing(self.ambient.ring)
        reps = [[E.to_rep(c) for c in row] for row in self.rows]
        return lattice_member(E, reps, [E.to_rep(c) for c in vec]) is not None


def span_subspace(fiber, vectors):
    rows, _ = rref_rows(fiber.field, list(vectors)) if vectors else ([], [])
    return SubLattice(fiber, rows, over_field=True)


def ideal_closure(ambient, generators):
    """Smallest two-sided ideal containing the generators, as a canonical
    SubLattice; closure by repeated one-sided multiplications to a fixpoint."""
    if isinstance(ambient, FiberAlgebra):
        return _ideal_closure_fiber(ambient, generators)
    return _ideal_closure_ring(ambient, generators)


def _ideal_closure_fiber(fiber, generators):
    F = fiber.field
    current = span_subspace(fiber, [list(g) for g in generators])
    while True:
        new_rows = list(current.rows)
        for v in current.rows:
            for i in range(fiber.dim):
                b = fiber.basis_vector(i)
                new_rows.append(fiber.vec_mul(b, list(v)))
                new_rows.append(fiber.vec_mul(list(v), b))
        nxt = span_subspace(fiber, new_rows)
        if nxt.dim == current.dim:
            return nxt
        current = nxt


def _ideal_closure_ring(A, generators):
    if not A.ring.is_euclidean:
        raise UnsupportedRing("ideal closure over a two-variable ring needs the generic fiber")
    E = EuclideanRing(A.ring)

    def hnf_of(vecs):
        reps = [[E.to_rep(c) for c in v] for v in vecs]
        basis = hermite_normal_form(E, reps).basis
        return [tuple(E.from_rep(c) for c in row) for row in basis]

    current = hnf_of([list(g) for g in generators])
    while True:
        new_rows = [list(r) for r in current]
        for v in current:
            for i in range(A.dim):
                b = A.basis_vector(i)
                new_rows.append(A.vec_mul(b, list(v)))
                new_rows.append(A.vec_mul(list(v), b))
        nxt = hnf_of(new_rows)
        if nxt == current:
            return SubLattice(A, nxt, over_field=False)
        current = nxt


def quotient_algebra(fiber, ideal):
    """Fiber modulo a closure-stable ideal, on the complement basis of the
    non-pivot coordinates."""
    F = fiber.field
    n = fiber.dim
    pivots = pivot_columns(F, ideal.rows)
    keep = [j for j in range(n) if j not in pivots]

    def project(vec):
        work = echelon_reduce(F, ideal.rows, pivots, vec)
        return [work[j] for j in keep]

    unit = project(fiber.unit)
    if all(F.is_zero(c) for c in unit) and keep:
        raise UnitInIdeal("the unit lies in the ideal")
    if not keep:
        raise UnitInIdeal("quotient by the whole algebra")
    m = len(keep)
    sc = [[[F.zero] * m for _ in range(m)] for _ in range(m)]
    for a in range(m):
        ea = fiber.basis_vector(keep[a])
        for b in range(m):
            eb = fiber.basis_vector(keep[b])
            prod = project(fiber.vec_mul(ea, eb))
            for c in range(m):
                sc[a][b][c] = prod[c]
    name, spec = fiber.provenance
    names = [fiber.basis_names[j] for j in keep]
    return FiberAlgebra(F, names, tuple(tuple(tuple(r) for r in row) for row in sc),
                        unit, (f"{name}/ideal", spec), validate=False)


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
    """Parse and validate an algebra definition (see serialize_algebra)."""
    name = None
    ring = None
    basis = None
    unit = None
    trace = None
    muls = []
    for raw in text.splitlines():
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
        elif head == "unit":
            unit = [p.strip() for p in rest.split(",")]
        elif head == "trace":
            trace = [p.strip() for p in rest.split(",")]
        elif head == "mul":
            i, j, k, expr = rest.split(maxsplit=3)
            muls.append((int(i), int(j), int(k), expr))
        else:
            raise UnsupportedRing(f"unknown definition line {line!r}")
    if name is None or ring is None or basis is None or unit is None:
        raise NoUnit("definition must provide algebra, ring, basis and unit lines")
    n = len(basis)
    if len(unit) != n or (trace is not None and len(trace) != n):
        raise NoUnit("unit/trace length does not match the basis")
    sc = [[[ring.zero() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i, j, k, expr in muls:
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise NotAssociative(f"mul indices {i} {j} {k} out of range")
        sc[i][j][k] = ring.parse(expr)
    sc = tuple(tuple(tuple(row) for row in plane) for plane in sc)
    unit_v = [ring.parse(e) for e in unit]
    trace_v = [ring.parse(e) for e in trace] if trace is not None else None
    return FiniteFreeAlgebra(name, ring, basis, sc, unit_v, trace_v, validate=validate)


def load_algebra_file(path, validate=True):
    with open(path, "r", encoding="utf-8") as fh:
        return load_algebra(fh.read(), validate=validate)


def nilpotency_index(ambient, lattice):
    """Smallest N with lattice^N = 0, or None when the powers stabilize at a
    nonzero subspace.  Ring lattices are checked in the generic fiber, which
    is equivalent for torsion-free lattices."""
    if isinstance(ambient, FiniteFreeAlgebra):
        fiber = ambient.generic_fiber()
        rows = [[ambient.ring.to_field(c) for c in row] for row in lattice.rows]
        lattice = span_subspace(fiber, rows)
        ambient = fiber
    F = ambient.field
    if lattice.dim == 0:
        return 1
    power = lattice
    n = 1
    while True:
        prods = []
        for x in power.rows:
            for y in lattice.rows:
                prods.append(ambient.vec_mul(list(x), list(y)))
        nxt = span_subspace(ambient, prods)
        n += 1
        if nxt.dim == 0:
            return n
        # powers of an ideal are nested, so a stable dimension means stable
        if nxt.dim == power.dim:
            return None
        power = nxt
