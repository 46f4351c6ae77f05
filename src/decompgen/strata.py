"""Radical lattices, the decomposition discriminant, Schur elements and the
recursive stratification of the base spectrum.

The discriminant candidate is the trace-Gram certificate: clear the generic
radical into an integral lattice J, form the quotient algebra B = A/J on a
complement basis, and take g = det(Gram of B's weighted character form)
times the denominators the projection onto B carried.  The form is
sum_S w_S chi_S over the memoized simples of A's generic fiber, with w_S
the multiplicity of S in B's regular module (1 where that vanishes in K),
so it is B's regular trace in characteristic 0.  The Gram matrix is never
formed: B = ⊕ End(S), and with M the square matrix of the simples' entries
rho_S(c_k)[a][b] of the complement lifts c_k, Gram = M^T D M for the
matrix D that pairs entry (a, b) of block S with (b, a), weighted w_S, so
det Gram = (-1)^(sum_S d_S (d_S - 1) / 2) prod_S w_S^(d_S^2) det(M)^2
(proof at `candidate_discriminant`).  Outside V(g) the reduced
lattice keeps its dimension and B's fiber is semisimple, so the fiber
radical equals the reduced lattice and has the generic dimension.  No
minor of J is needed for the first: over Z and k[x] the saturated rows
extend to a unimodular basis, so their maximal minors generate (1), and
over Z[d] and k[x,y] the minor of the cleared echelon rows on their pivot
columns is the product of the rows' denominators, whose primes g already
carries.  The candidate over-approximates: each of its minimal primes is
then verified exactly by the radical-dimension criterion and recorded as
Excluded or RecoveredTrivial.  Excluded components start the recursion on
restricted algebras; maximal points are singleton strata and stop it.
"""

from dataclasses import dataclass, field

from . import polyops as P
from .errors import (
    EngineError,
    NotSemisimpleGeneric,
    NotSplit,
    NotSymmetric,
    UnsupportedError,
    UnsupportedRestriction,
)
from .algebra import FiniteFreeAlgebra, restrict, span_subspace, table_on_basis
from .decomposition import dec_gen_membership, split_data
from .factor import factor_dense, factor_integer, factor_univariate
from .fields import IntegerOps, SparseKernels
from .linalg import Matrix, coprime_base, det, inverse, saturate_rows
from .modules import is_split, radical
from .primes import numerator_denominator_in_ring, prime_spec
from .rings import RingElement, is_unit, normalize_generator, ring_exact_div, ring_gcd


@dataclass
class RadicalLattice:
    """Integral form of the generic radical, with the facts the quotient
    B = A/J reads from it: `generic` is the memoized generic-radical
    SubLattice (its rows are the reduced echelon form of J over K), and
    `complement` spans a complement of J, as fraction-field vectors.  Over
    Z and k[x] `rows` is the Hermite basis of the saturation and the
    complement the rows W[r:] (r the rank) of the transform of its one
    Hermite split, so together they are a basis of R^n.  Otherwise `rows`
    are the cleared echelon rows, primitive as cleared (a prime of a row's
    pivot entry, the lcm of its denominators, misses the entry whose
    denominator carries its full power), and the complement is the
    non-pivot unit vectors of `generic`."""
    rows: tuple          # RingElement coordinate vectors spanning J over R
    generic: object
    complement: tuple

    @property
    def rank(self):
        return len(self.rows)


def _clear_row(ring, row):
    """Fraction-field row vector to a ring vector spanning the same line."""
    K = ring.fraction_field()
    if all(ring.contains(c, K) for c in row):
        return [ring.from_field_scalar(c, K) for c in row]
    out_nd = [numerator_denominator_in_ring(c, ring) for c in row]
    acc = ring.one()
    for _, d in out_nd:
        acc = ring_exact_div(acc * d, ring_gcd(acc, d))
    return [nu * ring_exact_div(acc, de) for nu, de in out_nd]


def radical_lattice(A):
    """Integral form of the generic radical: denominators cleared, and over
    Z and k[x] Hermite-saturated so the quotient is torsion free.  The one
    Hermite split of the saturation also gives the complement."""
    fiber = A.generic_fiber()
    rad = radical(fiber)
    ring = A.ring
    cleared = [_clear_row(ring, list(row)) for row in rad.rows]
    if ring.is_euclidean and cleared:
        E, to_plain, from_plain = ring.plain()
        sat, comp = saturate_rows(E, [[to_plain(c) for c in row] for row in cleared])
        rows = tuple(tuple(from_plain(c) for c in row) for row in sat)
        complement = tuple(tuple(ring.to_field(from_plain(c), fiber.field) for c in row)
                           for row in comp)
    else:
        rows = tuple(tuple(row) for row in cleared)
        complement = tuple(tuple(fiber.basis_vector(j))
                           for j in range(A.dim) if j not in rad.pivots)
    lat = RadicalLattice(rows, rad, complement)
    _assert_lattice(A, lat)
    return lat


def _assert_lattice(A, lat):
    """The cleared lattice spans the generic radical.  Its fraction-field
    span is then a two-sided ideal by construction: the intersection of
    the kernels of the algebra homomorphisms ρ_S (see
    `modules._assert_radical`), whose nilpotency `radical` checked."""
    fiber = A.generic_fiber()
    K = fiber.field
    rows_K = [[A.ring.to_field(c, K) for c in row] for row in lat.rows]
    if span_subspace(fiber, rows_K) != lat.generic:
        raise EngineError("integral radical lattice does not span the generic radical")


def quotient_over_ring(A, lat):
    """Structure constants of B = A/J on the lattice's complement basis, as
    a fiber over the fraction field; the complement lifts c_i in A's
    generic fiber, whose classes q_i are B's basis (the certificate reads
    A's memoized simples through them); and the product of every
    denominator that entered the projection.  The complement and the
    echelon rows of J come from `lat`, and B's table is read off one
    inverse of the basis of complement lifts and lattice rows
    (`table_on_basis`), so no Hermite or echelon form of the lattice rows
    runs here.

    Over Euclidean rings the complement completes a saturated lattice to a
    unimodular basis, so B's constants and unit coordinates are integral and
    nothing is absorbed: a non-integral one is a broken invariant and raises
    EngineError.  Over Z[d] and two-variable rings the complement is spanned
    by the non-pivot unit vectors and the coordinates, like the echelon rows
    of the lattice, can have denominators.  The certificate is only valid
    where the denominators are invertible, so the caller absorbs their
    product into the discriminant.  That also covers the locus where the
    cleared rows drop rank: their minor on the pivot columns is the product
    of their pivot entries, the lcms of each row's denominators.  Integral
    scalars never reach `denominator_ideal`: `RingDescriptor.contains`
    decides them on the scalar itself.
    """
    from .primes import denominator_ideal as _den

    fiber = A.generic_fiber()
    K = fiber.field
    ring = A.ring
    denoms = ring.one()
    if lat.rank == 0:
        return fiber, lat.complement, denoms
    comp_K, span_rows = lat.complement, lat.generic.rows
    sc, unit = table_on_basis(fiber, comp_K + span_rows, len(comp_K))
    scalars = [c for plane in sc for row in plane for c in row] + list(unit)
    if not ring.is_euclidean:
        scalars += [c for row in span_rows for c in row]
    seen = set()
    for c in scalars:
        if ring.contains(c, K):
            continue
        d = _den(c, ring)
        if is_unit(d):
            continue
        if ring.is_euclidean:
            raise EngineError(f"constant {K.to_str(c)} of {A.name}/J is not integral "
                              "on the unimodular complement")
        if str(d) not in seen:
            seen.add(str(d))
            denoms = denoms * d
    names = tuple(f"q{i}" for i in range(len(comp_K)))
    B = FiniteFreeAlgebra(A.name + "/J", K, names, sc, unit, validate=False)
    return B, comp_K, denoms


def candidate_discriminant(A):
    """Ring element g with: outside V(g) the fiber radical dimension equals
    the generic one.

    The certificate is the Gram determinant of t = sum_S w_S chi_S on
    B = A/J, with w_S = dim S / dim End(S), the multiplicity of S in B's
    regular module, replaced by 1 where it vanishes in K.  B is semisimple,
    so t is B's regular trace unless a weight was replaced.  On a split
    semisimple algebra t is a nonzero multiple of the matrix trace on each
    block, so its Gram determinant is never zero, and it kills the radical
    of every fiber.  g is that determinant times the denominators
    `quotient_over_ring` absorbed.

    The Gram matrix is never formed.  J acts as zero on every simple, so
    t(xy) = sum_S w_S tr(rho_S(x) rho_S(y)) for x, y in A, and
    tr(XY) = sum_{a,b} X[a][b] Y[b][a].  With M the square matrix of rows
    (S, a, b) and columns k, M[(S, a, b)][k] = rho_S(c_k)[a][b] for the
    complement lifts c_k (square since B = ⊕ End(S) has dimension
    sum_S d_S^2), this is Gram = M^T D M, where D pairs row (S, a, b) with
    (S, b, a), weighted w_S.  So

        det Gram = (-1)^(sum_S d_S (d_S - 1) / 2) prod_S w_S^(d_S^2) det(M)^2,

    the sign being that of the d_S (d_S - 1) / 2 swaps (a, b) <-> (b, a).
    A change of basis P of S maps rho_S(x) to P rho_S(x) P^-1, which acts
    on the rows of block S as P ⊗ P^-T, of determinant 1, so det(M) does
    not depend on the basis the chop chose.  The simples and weights are
    the memoized Wedderburn data of A's generic fiber, read through the
    lifts, so B is never chopped.  A non-split generic fiber raises
    NotSplit before any of this, so a zero determinant is a failed internal
    check and raises EngineError."""
    split_data(A)
    _, lifts, denoms = quotient_over_ring(A, radical_lattice(A))
    d = _gram_determinant(A, lifts)
    ring = A.ring
    if ring.is_field_ring:
        return ring.one()
    num, den = numerator_denominator_in_ring(d, ring)
    return normalize_generator(num * den * denoms)


def _gram_determinant(A, lifts):
    """det Gram of t on B in the basis of the lifts' classes, from one
    determinant of M (see `candidate_discriminant`).  M is built from the
    nonzero entries of the rho_S(b_j): over Z[d] and k[x,y] each lift is a
    unit vector e_j, whose column is those entries as they stand."""
    fiber = A.generic_fiber()
    K = fiber.field
    _, data = is_split(fiber)
    # column j of E: the entries of every rho_S(b_j), (a, b) of block S in row n_S + b d_S + a
    cols, n, const = [[] for _ in range(fiber.dim)], 0, 1
    for s, m in zip(data.simples, data.multiplicities):
        w = 1 if K.is_zero(K.from_int(m)) else m
        const *= (-1) ** (s.dim * (s.dim - 1) // 2) * w ** (s.dim ** 2)
        for col, act in zip(cols, s.module.action):
            col += [(n + b * s.dim + a, x) for b, e in enumerate(act.columns()) for a, x in e]
        n += s.dim ** 2
    E = Matrix.from_columns(K, n, cols)
    cols = [[(i, x) for i, x in enumerate(E.apply(lift)) if x != K.zero] for lift in lifts]
    dm = det(Matrix.from_columns(K, n, cols))
    if K.is_zero(dm):
        raise EngineError(f"the certificate form of {A.name}/J is degenerate on a split "
                          "semisimple quotient")
    return K.mul(K.from_int(const), K.mul(dm, dm))


# --- minimal primes -----------------------------------------------------------------

@dataclass(frozen=True)
class UnresolvedPrime:
    generator: object
    reason: str

    def short_str(self):
        return f"({self.generator})?"


def minimal_primes(g):
    """Minimal primes over V(g) as PrimeSpecs, with UnresolvedPrime markers
    for components whose primality or residue field is out of scope."""
    if g.is_zero():
        raise EngineError("the zero ideal has no minimal-prime decomposition here")
    ring = g.ring
    if is_unit(g) or ring.is_field_ring:
        return []
    out = []
    coeff = ring.coeff
    if isinstance(coeff, IntegerOps) and ring.nv == 0:
        for prime, _ in factor_integer(abs(g.const_value()))[1]:
            out.append(_prime_or_unresolved(ring, ring.from_int(prime)))
    elif ring.nv == 1:
        _, pairs = factor_univariate(g)
        for f, _ in pairs:
            out.append(_prime_or_unresolved(ring, f))
    else:
        out.extend(_minimal_primes_bivariate(g))
    uniq = []
    seen = set()
    for item in out:
        key = item.signature if hasattr(item, "signature") else ("?", str(item.generator))
        if key not in seen:
            seen.add(key)
            uniq.append(item)
    uniq.sort(key=lambda it: str(it.signature) if hasattr(it, "signature") else str(it.generator))
    return uniq


def _prime_or_unresolved(ring, elem):
    """The prime (elem), or an UnresolvedPrime that says why it is out of
    scope."""
    try:
        return prime_spec(ring, [elem])
    except UnsupportedError as e:
        return UnresolvedPrime(elem, str(e))


def _minimal_primes_bivariate(g):
    """Irreducible components over k[x,y]: the factors of the content in
    each variable (a polynomial free of that variable is its own content),
    then the squarefree pieces of the primitive rest, each a prime when
    `prime_spec` certifies it and otherwise split as a quadratic where its
    discriminant is a square."""
    ring = g.ring
    coeff = ring.coeff
    out = []
    work = g.data
    for main in (1, 0):
        cont = P._content_in(coeff, work, main)
        if P.pdeg(cont) > 0:
            _, pairs = factor_dense(coeff, P.p_to_dense(coeff, P.p_rec(cont, main)[0]))
            for f, _ in pairs:
                f = P.p_embed(P.p_from_dense(coeff, f), 1 - main)
                out.append(_prime_or_unresolved(ring, RingElement(ring, f)))
            work = P.pexact_div(coeff, work, cont)
    if P.pdeg(work) == 0:
        return out
    # squarefree split of the remaining primitive part, refined into
    # coprime pieces
    k = SparseKernels(coeff, 2)
    pieces = [work]
    for i in (0, 1):
        der = P.pderiv(coeff, work, i)
        if der:
            sf = k.gcd(work, der)
            if not k.is_const(sf):
                pieces = coprime_base(k, [k.exact_div(work, sf), sf])
                break
    for piece in pieces:
        piece = RingElement(ring, piece)
        item = _prime_or_unresolved(ring, normalize_generator(piece))
        split = _split_quadratic_bivariate(piece) if isinstance(item, UnresolvedPrime) else None
        if split:
            out.extend(_prime_or_unresolved(ring, part) for part in split)
        else:
            out.append(item)
    return out


def _split_quadratic_bivariate(piece):
    """Factor a squarefree primitive quadratic-in-one-variable piece whose
    discriminant is a perfect square; None when not applicable."""
    ring = piece.ring
    coeff = ring.coeff
    if coeff.characteristic == 2:
        return None
    for main in (1, 0):
        if P.pdeg_in(piece.data, main) != 2:
            continue
        a, b, disc = _quadratic_discriminant(coeff, piece.data, main)
        s = _sqrt_univariate(coeff, disc)
        if s is None:
            continue
        other = 1 - main
        lead = P.pmul(coeff, P.p_embed(P.pscale(coeff, a, coeff.from_int(2)), other),
                      P.pvar(coeff, 2, main))
        factors = []
        for sign in (1, -1):
            shift = P.padd(coeff, b, P.pscale(coeff, s, coeff.from_int(sign)))
            # (2a) * v_main + (b +/- s)
            f = RingElement(ring, P.padd(coeff, lead, P.p_embed(shift, other)))
            # strip the content in the main variable
            cont = P._content_in(coeff, f.data, main) if f.data else None
            if cont and P.pdeg(cont) > 0:
                f = ring_exact_div(f, RingElement(ring, cont))
            factors.append(normalize_generator(f))
        prod = factors[0] * factors[1]
        target = normalize_generator(piece)
        if normalize_generator(prod) == target:
            return factors
        return None
    return None


def _quadratic_discriminant(coeff, data, main):
    """(a, b, b^2 - 4ac) for a two-variable polynomial a*v^2 + b*v + c that
    is quadratic in the variable v of index main."""
    rec = P.p_rec(data, main)
    a = P.pnorm(coeff, rec.get(2, ()))
    b = P.pnorm(coeff, rec.get(1, ()))
    c = P.pnorm(coeff, rec.get(0, ()))
    disc = P.psub(coeff, P.pmul(coeff, b, b),
                  P.pscale(coeff, P.pmul(coeff, a, c), coeff.from_int(4)))
    return a, b, disc


def _sqrt_scalar(F, u):
    """The smaller square root of u in Q or GF(p) (an int in [0, p) there),
    or None: the roots of x^2 - u off the engine's own factorization."""
    roots = [F.neg(f[0]) for f, _ in factor_dense(F, (F.neg(u), 0, 1))[1] if P.udeg(f) == 1]
    return min(roots) if roots else None


def _sqrt_univariate(coeff, data):
    """Square root of a one-variable polynomial (given in two-variable form)
    when it is a perfect square, else None."""
    if P.pis_zero(data):
        return data
    dense = P.p_to_dense(coeff, data)
    if P.udeg(dense) % 2:
        return None
    unit, pairs = factor_dense(coeff, dense)
    if any(m % 2 for _, m in pairs):
        return None
    u_root = _sqrt_scalar(coeff, unit)
    if u_root is None:
        return None
    root = (u_root,)
    for f, m in pairs:
        for _ in range(m // 2):
            root = P.umul(coeff, root, f)
    return P.p_from_dense(coeff, root)


# --- the discriminant with exact verification ----------------------------------------

@dataclass
class DiscriminantPoint:
    prime: object          # PrimeSpec or UnresolvedPrime
    status: str            # Excluded | RecoveredTrivial | Unknown
    generic_radical_dim: int = None
    fiber_radical_dim: int = None
    reason: str = ""

    def short_str(self):
        return f"{self.prime.short_str()} {self.status}"


@dataclass
class Discriminant:
    algebra_name: str
    candidate: object      # RingElement, never zero
    points: list

    @property
    def excluded(self):
        return [pt for pt in self.points if pt.status == "Excluded"]

    @property
    def recovered(self):
        return [pt for pt in self.points if pt.status == "RecoveredTrivial"]

    @property
    def unknown(self):
        return [pt for pt in self.points if pt.status == "Unknown"]


def dec_ex(A):
    """Candidate discriminant with every minimal prime verified pointwise by
    the exact radical-dimension criterion."""
    g = candidate_discriminant(A)
    points = []
    for item in minimal_primes(g):
        if isinstance(item, UnresolvedPrime):
            points.append(DiscriminantPoint(item, "Unknown", reason=item.reason))
            continue
        try:
            ev = dec_gen_membership(A, item)
        except NotSplit as e:
            points.append(DiscriminantPoint(item, "Unknown", reason=str(e)))
            continue
        points.append(DiscriminantPoint(item, "RecoveredTrivial" if ev.trivial else "Excluded",
                                        ev.generic_radical_dim, ev.fiber_radical_dim))
    return Discriminant(A.name, g, points)


# --- Schur elements -------------------------------------------------------------------

def schur_elements(A):
    """Schur elements of the generic simples of a symmetric algebra with
    split semisimple generic fiber, via the dual basis of the trace form.
    Validated nonzero and integral over the base ring.

    For a split simple S, sum_k rho(b_k) X rho(b_k^dual) = c_S tr(X) Id
    (Geck and Pfeiffer 2000, Thm 7.2.1); with X = E_00 the (0, 0) entry is
    c_S itself, so no division by dim S (zero in characteristic dividing
    it) is needed."""
    if A.trace_vector is None:
        raise NotSymmetric(f"{A.name} carries no symmetrizing trace")
    gram_ring = A.trace_gram_ring()
    wd = split_data(A)
    if wd.radical_dim != 0:
        raise NotSemisimpleGeneric(f"the generic fiber of {A.name} is not semisimple")
    fiber = A.generic_fiber()
    K = fiber.field
    n = A.dim
    # b_k^dual = sum_l (G^-1)[k][l] b_l for the trace Gram G
    ginv = inverse(Matrix(K, [[A.ring.to_field(gram_ring[i][j], K) for j in range(n)]
                              for i in range(n)]))
    out = []
    for s in wd.simples:
        # (0, 0) entry of rho(b_k) E_00 rho(b_k^dual) is rho(b_k)[0][0] rho(b_k^dual)[0][0]
        corner = [s.module.action[k].rows[0][0] for k in range(n)]
        c = K.zero
        for a, b in zip(corner, ginv.apply(corner)):
            c = K.add(c, K.mul(a, b))
        if K.is_zero(c):
            raise EngineError(f"vanishing Schur element on a semisimple fiber of {A.name}")
        elem = A.ring.from_field_scalar(c, K)
        if elem is None:
            raise EngineError(f"Schur element {K.to_str(c)} of {A.name} escapes the base ring")
        out.append(elem)
    return out


def schur_discriminant_crosscheck(A):
    """V(product of Schur elements) against the Excluded components of the
    verified discriminant, compared as canonical prime lists."""
    cs = schur_elements(A)
    prod = A.ring.one()
    for c in cs:
        prod = prod * c
    prod = normalize_generator(prod)
    schur_primes = minimal_primes(prod)
    dec = dec_ex(A)
    schur_sigs = sorted(p.signature for p in schur_primes if not isinstance(p, UnresolvedPrime))
    excl_sigs = sorted(pt.prime.signature for pt in dec.excluded
                       if not isinstance(pt.prime, UnresolvedPrime))
    return {
        "schur_elements": cs,
        "product": prod,
        "schur_primes": schur_primes,
        "discriminant": dec,
        "match": schur_sigs == excl_sigs and not dec.unknown
                 and not any(isinstance(p, UnresolvedPrime) for p in schur_primes),
    }


# --- stratification --------------------------------------------------------------------

@dataclass
class StratumNode:
    algebra_name: str
    ring: object
    kind: str                  # node | point-leaf | unresolved-leaf
    discriminant: object = None
    children: list = field(default_factory=list)   # (DiscriminantPoint, StratumNode)
    reason: str = ""

    def stratum_description(self):
        if self.kind == "point-leaf":
            return "the single point"
        if self.kind == "unresolved-leaf":
            return f"unresolved: {self.reason}"
        excl = [pt.prime.short_str() for pt, _ in self.children]
        if not excl:
            return "all of Spec(R)"
        return "Spec(R) minus " + " and ".join(f"V{g}" for g in excl)


def stratify(A, _depth=0):
    """Tree of restricted algebras whose trivial loci cover the spectrum.

    Children sit at the verified Excluded components; maximal points become
    singleton-stratum leaves (over a field the only decomposition map is the
    identity), unsupported restrictions and unverifiable components become
    unresolved leaves that the report surfaces rather than drops.
    """
    if _depth > 4:
        raise EngineError("stratification recursion exceeded the supported depth")
    if A.ring.is_field_ring:
        return StratumNode(A.name, A.ring, "point-leaf")
    try:
        dec = dec_ex(A)
    except NotSplit as e:
        return StratumNode(A.name, A.ring, "unresolved-leaf", reason=str(e))
    node = StratumNode(A.name, A.ring, "node", dec)
    for pt in dec.points:
        if pt.status == "RecoveredTrivial":
            continue
        if pt.status == "Unknown":
            node.children.append(
                (pt, StratumNode(A.name, A.ring, "unresolved-leaf", reason=pt.reason)))
            continue
        spec = pt.prime
        if spec.is_maximal_point:
            node.children.append((pt, StratumNode(
                f"{A.name}|{spec.short_str()}", None, "point-leaf")))
            continue
        try:
            B = restrict(A, spec)
        except UnsupportedRestriction as e:
            node.children.append(
                (pt, StratumNode(A.name, A.ring, "unresolved-leaf", reason=str(e))))
            continue
        node.children.append((pt, stratify(B, _depth=_depth + 1)))
    return node


def tree_lines(node, indent=0):
    pad = "  " * indent
    out = []
    if node.kind == "point-leaf":
        out.append(f"{pad}point {node.algebra_name}: singleton stratum")
        return out
    if node.kind == "unresolved-leaf":
        out.append(f"{pad}unresolved {node.algebra_name}: {node.reason}")
        return out
    cand = node.discriminant.candidate
    out.append(f"{pad}{node.algebra_name} over {node.ring!r}: candidate ({cand}), "
               f"stratum = {node.stratum_description()}")
    for pt in node.discriminant.recovered:
        out.append(f"{pad}  recovered {pt.prime.short_str()} "
                   f"(radical {pt.fiber_radical_dim} = generic {pt.generic_radical_dim})")
    for pt, child in node.children:
        out.append(f"{pad}  at {pt.prime.short_str()} [{pt.status}]:")
        out.extend(tree_lines(child, indent + 2))
    return out
