"""Prime ideals of the supported rings, residue fields, and reduction maps.

A PrimeSpec validates its generators at construction and precomputes the
residue field together with the images of the ring variables in it.  The
reduction map R -> k(p) is then a single uniform evaluation (coefficients
through from_int / from_fraction, variables at their stored images), which
keeps the restrict-then-specialize compatibility bit-exact: composing two
reductions and reducing in one step evaluate the same data the same way.

Supported shapes: the zero ideal of any ring; (p) in Z and Z[x]; principal
(g) with a residue field of one of two shapes; maximal pairs whose first
step is a supported ring quotient, e.g. (p, g) in Z[x] or (x - a, y - b) in
k[x,y].  The two shapes of a principal (g), K the coefficient field (Q for
Z[x]):

  * g in one variable v_i, irreducible over K: K itself at the root of a
    linear g, GF(q^e) for K = GF(q), and over Q only a linear g; the other
    variable, if any, extends it to a function field;
  * g = a*v_i + b linear in v_i with coprime a, b in the other variable:
    v_i goes to -b/a in that variable's function field.

Every other prime is rejected at construction.  A ring quotient R/(g) is
again a supported ring in two cases: reduction of the coefficients at a
prime p of Z, and g = a*v_i + b with a unit a, where one evaluation sends
v_i to -b/a.
"""

from dataclasses import dataclass

from . import polyops as P
from .errors import NotPrime, UnsupportedResidueField, UnsupportedRestriction
from .factor import is_irreducible
from .fields import FuncField, GFExt, GFPrime, IntegerOps, Rationals, scalar_from_coeff
from .rings import (
    RingDescriptor,
    RingScalars,
    int_content,
    is_prime_int,
    normalize_generator,
    ring_gcd,
)

GENERIC = "Generic"
PRINCIPAL = "PrincipalIrreducible"
MAXIMAL = "MaximalPoint"

QQ = Rationals()


@dataclass(frozen=True)
class PrimeSpec:
    ring: RingDescriptor
    generators: tuple
    tag: str
    residue_field: object
    var_images: tuple
    signature: tuple

    @property
    def is_generic(self):
        return self.tag == GENERIC

    @property
    def is_maximal_point(self):
        return self.tag == MAXIMAL

    def __repr__(self):
        if self.is_generic:
            return f"(0) in {self.ring!r}"
        gens = ", ".join(str(g) for g in self.generators)
        return f"({gens}) in {self.ring!r}"

    def short_str(self):
        return "(0)" if self.is_generic else "(" + ", ".join(str(g) for g in self.generators) + ")"


def reduce_elem(elem, spec):
    """Image of a ring element in the residue field of spec."""
    if elem.ring != spec.ring:
        raise NotPrime(f"element of {elem.ring!r} reduced at a prime of {spec.ring!r}")
    F = spec.residue_field
    return P.peval(elem.ring.coeff, elem.data, F, lambda c: scalar_from_coeff(F, c), spec.var_images)


# --- construction --------------------------------------------------------------

def generic_point(ring):
    F = ring.fraction_field()
    if ring.nv == 0:
        images = ()
    else:
        images = tuple(F.var_scalar(i) for i in range(ring.nv))
    return PrimeSpec(ring, (), GENERIC, F, images, (repr(ring), "generic"))


def prime_spec(ring, generators):
    """Validated PrimeSpec from a generator list (RingElements of ring)."""
    gens = [g for g in generators if not g.is_zero()]
    for g in gens:
        if g.ring != ring:
            raise NotPrime("generator from a different ring")
    if not gens:
        return generic_point(ring)
    if ring.is_field_ring:
        raise NotPrime(f"{ring!r} is a field; only the zero ideal is prime")
    # Euclidean rings are principal ideal domains: collapse the generators.
    if ring.is_euclidean and len(gens) > 1:
        g = gens[0]
        for h in gens[1:]:
            g = ring_gcd(g, h)
        gens = [g]
    if len(gens) == 1:
        return _principal_prime(ring, gens[0])
    if len(gens) == 2:
        return _maximal_pair(ring, gens[0], gens[1])
    raise NotPrime("at most two generators are supported")


def _principal_prime(ring, g):
    g = normalize_generator(g)
    if not isinstance(ring.coeff, IntegerOps):
        if g.is_const():
            raise NotPrime(f"({g}) is the unit ideal")
        F, images = _residue_field(ring, g)
        tag = MAXIMAL if ring.nv == 1 else PRINCIPAL
    elif g.is_const():
        p = g.const_value()
        if not is_prime_int(p):
            raise NotPrime(f"({p}) is not a prime ideal of {ring!r}")
        F = FuncField(GFPrime(p), ring.varnames) if ring.nv else GFPrime(p)
        images = tuple(F.var_scalar(i) for i in range(ring.nv))
        tag = PRINCIPAL if ring.nv else MAXIMAL
    else:
        content, _ = int_content(g)
        if content != 1:
            raise NotPrime(f"({g}) is not prime in {ring!r}: content {content}")
        F, images = _residue_field(ring, g)
        tag = PRINCIPAL
    return PrimeSpec(ring, (g,), tag, F, images, (repr(ring), "prin", str(g)))


def _residue_field(ring, g):
    """(residue field, variable images) of R/(g) for a nonconstant g of
    content 1, in one of the two shapes the module docstring lists."""
    coeff = ring.coeff
    K = QQ if isinstance(coeff, IntegerOps) else coeff
    for i in range(ring.nv):
        others = ring.varnames[:i] + ring.varnames[i + 1:]
        if all(e[i] == sum(e) for e, _ in g.data):
            dense = P.p_to_dense(K, tuple(((e[i],), c) for e, c in g.data))
            if not is_irreducible(K, dense):
                raise NotPrime(f"({g}) is not prime: {g} is reducible over {K!r}")
            n = len(dense) - 1
            if n == 1:
                base, root = K, K.div(K.neg(dense[0]), dense[1])
            elif K.characteristic == 0:
                field = f"a degree-{n} number field"
                if others:
                    field = f"a function field in {others[0]} over {field}"
                raise UnsupportedResidueField(f"residue field of ({g}) is {field}")
            else:
                base = GFExt(K.p, n, dense)
                root = base.gen()
            if not others:
                return base, (root,)
            F = FuncField(base, others)
            image = F.from_poly(P.pconst(base, 1, root))
        elif P.pdeg_in(g.data, i) == 1:
            a, b = _linear_split(coeff, g.data, i)
            if P.udeg(P.ugcd(coeff, P.p_to_dense(coeff, a), P.p_to_dense(coeff, b))) > 0:
                raise NotPrime(f"({g}) is not prime: coefficient gcd is nontrivial")
            F = FuncField(coeff, others)
            image = F.make(P.pneg(coeff, b), a)
        else:
            continue
        images = [F.var_scalar(0)]
        images.insert(i, image)
        return F, tuple(images)
    raise UnsupportedResidueField(
        f"cannot certify ({g}) prime or represent its residue field")


def _linear_split(coeff, data, i):
    """(a, b) with data = a*v_i + b for data of degree one in v_i, a and b
    polynomials in the other variables."""
    a, b = [], []
    for e, c in data:
        (a if e[i] else b).append((e[:i] + e[i + 1:], c))
    return P.pnorm(coeff, a), P.pnorm(coeff, b)


def _maximal_pair(ring, g1, g2):
    last_err = None
    for first, second in ((g1, g2), (g2, g1)):
        try:
            qring, qmap = ring_quotient(ring, first)
        except UnsupportedRestriction as e:
            last_err = e
            continue
        g2bar = qmap(second)
        if g2bar.is_zero():
            raise NotPrime(f"({g1}, {g2}) is not a maximal point: redundant generators")
        sub = prime_spec(qring, [g2bar])
        if not sub.is_maximal_point:
            raise NotPrime(f"({g1}, {g2}) does not cut out a maximal point")
        images = tuple(reduce_elem(qmap(ring.var(v)), sub) for v in ring.varnames)
        return PrimeSpec(ring, (normalize_generator(first), second),
                         MAXIMAL, sub.residue_field, images,
                         (repr(ring), "max", str(normalize_generator(first)),
                          repr(qring), sub.signature[2]))
    raise last_err or UnsupportedResidueField(
        f"maximal point ({g1}, {g2}) needs a generator with a supported quotient")


# --- principal ring quotients (shared with algebra restriction) -----------------

def ring_quotient(ring, g):
    """(quotient ring, element map) for R/(g), g nonzero, when the quotient
    is again a supported ring: coefficients reduced at a prime p of Z, or a
    variable v_i sent to -b/a for g = a*v_i + b with a unit a.  Raises
    UnsupportedRestriction otherwise."""
    coeff = ring.coeff
    integral = isinstance(coeff, IntegerOps)
    if g.is_const():
        if not integral:
            raise UnsupportedRestriction(f"({g}) is the unit ideal")
        p = abs(g.const_value())
        if not is_prime_int(p):
            raise UnsupportedRestriction(f"Z/({p}) is not a domain")
        newring = RingDescriptor(GFPrime(p), ring.varnames)

        def imap(e, _nr=newring, _p=p):
            return _nr.element(P.pnorm(_nr.coeff, [(ex, c % _p) for ex, c in e.data]))

        return newring, imap
    for i in range(ring.nv):
        if P.pdeg_in(g.data, i) != 1:
            continue
        a, b = _linear_split(coeff, g.data, i)
        ainv, one = coeff.unit_normalize(P.pconst_value(coeff, a))
        if not P.pis_const(a) or one != coeff.one:
            continue
        newring = RingDescriptor(coeff, ring.varnames[:i] + ring.varnames[i + 1:])
        images = [newring.var(v) for v in newring.varnames]
        images.insert(i, newring.element(P.pscale(coeff, P.pneg(coeff, b), ainv)))
        S = RingScalars(newring)
        return newring, lambda e: P.peval(coeff, e.data, S, newring.from_coeff, images)
    if integral and g.total_degree() == 1:
        raise UnsupportedRestriction(f"{ring!r}/({g}) is not a polynomial ring")
    if integral:
        raise UnsupportedRestriction(f"{ring!r}/({g}) is an order in a number field")
    if ring.nv == 1:
        raise UnsupportedRestriction(f"{ring!r}/({g}) is a field extension, not a supported ring")
    raise UnsupportedRestriction(f"{ring!r}/({g}) is not a supported ring")


def quotient_chain(ring, generators):
    """(quotient ring, element map) for R/(g_1, ..., g_k), taken one
    principal quotient at a time.  Each generator is pushed into the
    quotient built so far and skipped when it vanishes there."""
    maps = []

    def push(e):
        for m in maps:
            e = m(e)
        return e

    for g in generators:
        g = push(g)
        if g.is_zero():
            continue
        ring, m = ring_quotient(ring, g)
        maps.append(m)
    return ring, push


# --- fraction-field membership ---------------------------------------------------

def denominator_ideal(alpha, ring):
    """Canonical generator of {r in R : r*alpha in R} for alpha in Frac(R)."""
    return normalize_generator(numerator_denominator_in_ring(alpha, ring)[1])


def numerator_denominator_in_ring(alpha, ring):
    """alpha in Frac(R) as (n, d) with n, d RingElements and d the canonical
    denominator-ideal generator."""
    if ring.nv == 0:
        if ring.is_field_ring:
            return ring.from_coeff(alpha), ring.one()
        return ring.from_int(alpha.numerator), ring.from_int(alpha.denominator)
    F = ring.fraction_field()
    num, den = F.numerator(alpha), F.denominator(alpha)
    if not isinstance(ring.coeff, IntegerOps):
        return ring.element(num), ring.element(den)
    from .rings import _rat_clear_denoms

    cn, nprim = _rat_clear_denoms(num)
    cd, dprim = _rat_clear_denoms(den)
    if cn == 0:
        return ring.zero(), ring.one()
    r = QQ.div(cn, cd)
    return ring.element(nprim) * r.numerator, ring.element(dprim) * r.denominator


def reduce_scalar(alpha, spec):
    """Image of alpha in k(p) for alpha in the localization R_p, read off
    the numerator and denominator of `numerator_denominator_in_ring`; over
    a field ring that is alpha itself."""
    from .errors import NotReducible

    n, d = numerator_denominator_in_ring(alpha, spec.ring)
    dval = reduce_elem(d, spec)
    if spec.residue_field.is_zero(dval):
        raise NotReducible(f"{alpha} is not in the localization at {spec!r}")
    return spec.residue_field.div(reduce_elem(n, spec), dval)


# --- text form -------------------------------------------------------------------

def parse_prime(text, ring):
    """`p=<int>` | `gen=[<poly>,...]` | `generic` to a validated PrimeSpec."""
    text = text.strip()
    if text in ("generic", "0", "(0)"):
        return generic_point(ring)
    bad = NotPrime(f"cannot parse prime {text!r} (use p=<int>, gen=[...], or generic)")
    if text.startswith("p="):
        try:
            n = int(text[2:])
        except ValueError:
            raise bad from None
        return prime_spec(ring, [ring.from_int(n)])
    if text.startswith("gen=[") and text.endswith("]"):
        inner = text[5:-1]
        gens = [ring.parse(part) for part in inner.split(",") if part.strip()]
        return prime_spec(ring, gens)
    raise bad
