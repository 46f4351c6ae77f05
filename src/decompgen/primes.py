"""Prime ideals of the supported rings, residue fields, and reduction maps.

A PrimeSpec validates its generators at construction and precomputes the
residue field together with the images of the ring variables in it.  The
reduction map R -> k(p) is then a single uniform evaluation (coefficients
through from_int / from_fraction, variables at their stored images), which
keeps the restrict-then-specialize compatibility bit-exact: composing two
reductions and reducing in one step evaluate the same data the same way.

Supported shapes: the zero ideal of any ring; (p) in Z; principal (f) with f
irreducible and a supported residue field; maximal pairs whose first step is
a supported ring quotient, e.g. (p, g) in Z[x] or (x - a, y - b) in k[x,y].
Primes whose residue field falls outside {Q, GF(p), GF(p^e), one- or
two-variable function fields over these} are rejected at construction.
"""

from dataclasses import dataclass

from . import polyops as P
from .errors import NotPrime, UnsupportedResidueField, UnsupportedRestriction
from .factor import _scalar_pow, is_irreducible_gf, is_irreducible_qq
from .fields import FuncField, GFExt, GFPrime, IntegerOps, Rationals, scalar_from_coeff
from .rings import (
    RingDescriptor,
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


def contains(spec, elem):
    """Ideal membership for the supported shapes: elem lies in the prime."""
    return spec.residue_field.is_zero(reduce_elem(elem, spec))


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
    coeff = ring.coeff
    if isinstance(coeff, IntegerOps) and ring.nv == 0:
        n = g.const_value()
        if not is_prime_int(abs(n)):
            raise NotPrime(f"({n}) is not a prime ideal of Z")
        p = abs(n)
        return PrimeSpec(ring, (ring.from_int(p),), MAXIMAL, GFPrime(p), (),
                         (repr(ring), "prin", str(p)))
    if g.is_const():
        if isinstance(coeff, IntegerOps):
            n = g.const_value()
            if not is_prime_int(abs(n)):
                raise NotPrime(f"({n}) is not a prime ideal of {ring!r}")
            p = abs(n)
            F = FuncField(GFPrime(p), ring.varnames)
            return PrimeSpec(ring, (ring.from_int(p),), PRINCIPAL, F,
                             tuple(F.var_scalar(i) for i in range(ring.nv)),
                             (repr(ring), "prin", str(p)))
        raise NotPrime(f"({g}) is the unit ideal")
    if isinstance(coeff, IntegerOps):
        return _zx_principal(ring, g)
    if ring.nv == 1:
        return _kx_principal(ring, g)
    return _kxy_principal(ring, g)


def _dense(ring, g):
    return P.p_to_dense(ring.coeff, g.data)


def _kx_principal(ring, g):
    coeff = ring.coeff
    dense = _dense(ring, g)
    if isinstance(coeff, Rationals):
        if not is_irreducible_qq(dense):
            raise NotPrime(f"({g}) is not prime: {g} is reducible over Q")
        if len(dense) > 2:
            raise UnsupportedResidueField(
                f"residue field of ({g}) is a degree-{len(dense) - 1} number field")
        root = QQ.div(QQ.neg(dense[0]), dense[1])
        return PrimeSpec(ring, (g,), MAXIMAL, Rationals(), (root,),
                         (repr(ring), "prin", str(g)))
    if not is_irreducible_gf(coeff, dense):
        raise NotPrime(f"({g}) is not prime: {g} is reducible over {coeff!r}")
    if len(dense) == 2:
        root = coeff.div(coeff.neg(dense[0]), dense[1])
        return PrimeSpec(ring, (g,), MAXIMAL, coeff, (root,),
                         (repr(ring), "prin", str(g)))
    F = GFExt(coeff.p, len(dense) - 1, dense)
    return PrimeSpec(ring, (g,), MAXIMAL, F, (F.gen(),),
                     (repr(ring), "prin", str(g)))


def _zx_principal(ring, g):
    content, prim = int_content(g)
    if abs(content) != 1:
        raise NotPrime(f"({g}) is not prime in {ring!r}: content {content}")
    dense = _dense(ring, g)
    if not is_irreducible_qq(dense):
        raise NotPrime(f"({g}) is not prime: reducible over Q")
    if len(dense) > 2:
        raise UnsupportedResidueField(
            f"residue field of ({g}) is a degree-{len(dense) - 1} number field")
    root = QQ.div(QQ.neg(dense[0]), dense[1])
    return PrimeSpec(ring, (g,), PRINCIPAL, Rationals(), (root,),
                     (repr(ring), "prin", str(g)))


def _kxy_principal(ring, g):
    coeff = ring.coeff
    deg_in = [P.pdeg_in(g.data, i) for i in range(2)]
    # univariate generator: k[x,y]/(f(x)) has residue field k'(y)
    for i in range(2):
        j = 1 - i
        if deg_in[j] == 0:
            uni = RingDescriptor(coeff, (ring.varnames[i],))
            dense = P.p_to_dense(coeff, tuple(((e[i],), c) for e, c in g.data))
            if isinstance(coeff, Rationals):
                if not is_irreducible_qq(dense):
                    raise NotPrime(f"({g}) is not prime: reducible")
                if len(dense) > 2:
                    raise UnsupportedResidueField(
                        f"residue field of ({g}) is a number-field function field")
                root = QQ.div(QQ.neg(dense[0]), dense[1])
                F = FuncField(Rationals(), (ring.varnames[j],))
                images = [None, None]
                images[i] = F.from_fraction(root)
                images[j] = F.var_scalar(0)
            else:
                if not is_irreducible_gf(coeff, dense):
                    raise NotPrime(f"({g}) is not prime: reducible")
                if len(dense) == 2:
                    base = coeff
                    rootval = coeff.div(coeff.neg(dense[0]), dense[1])
                    F = FuncField(base, (ring.varnames[j],))
                    images = [None, None]
                    images[i] = F.from_poly(P.pconst(base, 1, rootval))
                    images[j] = F.var_scalar(0)
                else:
                    base = GFExt(coeff.p, len(dense) - 1, dense)
                    F = FuncField(base, (ring.varnames[j],))
                    images = [None, None]
                    images[i] = F.from_poly(P.pconst(base, 1, base.gen()))
                    images[j] = F.var_scalar(0)
            return PrimeSpec(ring, (g,), PRINCIPAL, F, tuple(images),
                             (repr(ring), "prin", str(g)))
    # generator linear in one variable: substitute a rational function
    for i in range(2):
        if deg_in[i] == 1:
            j = 1 - i
            # g = a(other) * v_i + b(other)
            a_terms, b_terms = [], []
            for e, c in g.data:
                (a_terms if e[i] == 1 else b_terms).append(((e[j],), c))
            a = P.pnorm(coeff, a_terms)
            b = P.pnorm(coeff, b_terms)
            if P.udeg(P.ugcd(coeff, P.p_to_dense(coeff, a), P.p_to_dense(coeff, b))) > 0:
                raise NotPrime(f"({g}) is not prime: coefficient gcd is nontrivial")
            F = FuncField(coeff, (ring.varnames[j],))
            images = [None, None]
            images[j] = F.var_scalar(0)
            images[i] = F.make(P.pneg(coeff, b), a)
            return PrimeSpec(ring, (g,), PRINCIPAL, F, tuple(images),
                             (repr(ring), "prin", str(g)))
    raise UnsupportedResidueField(
        f"cannot certify ({g}) prime or represent its residue field")


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
    """(quotient ring, element map) for R/(g) when the quotient is again a
    supported ring.  Raises UnsupportedRestriction otherwise."""
    if g.is_zero():
        return ring, lambda e: e
    coeff = ring.coeff
    if isinstance(coeff, IntegerOps):
        if g.is_const():
            p = abs(g.const_value())
            if not is_prime_int(p):
                raise UnsupportedRestriction(f"Z/({p}) is not a domain")
            newcoeff = GFPrime(p)
            newring = RingDescriptor(newcoeff, ring.varnames)

            def imap(e, _nr=newring, _p=p):
                return _nr.element(P.pnorm(_nr.coeff, [(ex, c % _p) for ex, c in e.data]))

            return newring, imap
        if ring.nv == 1 and g.degree_in(ring.varnames[0]) == 1:
            dense = _dense(ring, g)
            if abs(dense[1]) == 1:
                c = -dense[0] * dense[1]
                newring = RingDescriptor(IntegerOps(), ())

                def imap(e, _nr=newring, _c=c):
                    val = sum(coef * _c ** ex[0] for ex, coef in e.data)
                    return _nr.from_int(val)

                return newring, imap
            raise UnsupportedRestriction(f"Z[x]/({g}) is not a polynomial ring")
        raise UnsupportedRestriction(f"Z[x]/({g}) is an order in a number field")
    # field coefficients
    if g.is_const():
        raise UnsupportedRestriction(f"({g}) is the unit ideal")
    if ring.nv == 1:
        if g.total_degree() == 1:
            dense = _dense(ring, g)
            root = coeff.div(coeff.neg(dense[0]), dense[1])
            newring = RingDescriptor(coeff, ())

            def imap(e, _nr=newring, _r=root):
                total = coeff.zero
                for ex, c in e.data:
                    total = coeff.add(total, coeff.mul(c, _scalar_pow(coeff, _r, ex[0])))
                return _nr.from_coeff(total)

            return newring, imap
        raise UnsupportedRestriction(f"{ring!r}/({g}) is a field extension, not a supported ring")
    # two variables: substitution shapes
    for i in range(2):
        j = 1 - i
        if P.pdeg_in(g.data, i) == 1:
            a_terms, b_terms = [], []
            for e, c in g.data:
                (a_terms if e[i] == 1 else b_terms).append(((e[j],), c))
            a = P.pnorm(coeff, a_terms)
            b = P.pnorm(coeff, b_terms)
            if not P.pis_const(a) or P.pis_zero(a):
                continue
            ainv = coeff.inv(P.pconst_value(coeff, a))
            h = P.pscale(coeff, P.pneg(coeff, b), ainv)  # v_i maps to h(v_j)
            newring = RingDescriptor(coeff, (ring.varnames[j],))

            def imap(e, _nr=newring, _h=h, _i=i, _j=j):
                dom = _nr.coeff
                out = P.PZERO
                for ex, c in e.data:
                    term = P.pconst(dom, 1, c)
                    term = P.pmul(dom, term, P.ppow(dom, _h, ex[_i], 1))
                    term = P.pmul(dom, term, ((( ex[_j],), dom.one),))
                    out = P.padd(dom, out, term)
                return _nr.element(out)

            return newring, imap
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


def is_in_localization(alpha, spec):
    gen = denominator_ideal(alpha, spec.ring)
    return not contains(spec, gen)


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
    if text.startswith("p="):
        n = int(text[2:])
        return prime_spec(ring, [ring.from_int(n)])
    if text.startswith("gen=[") and text.endswith("]"):
        inner = text[5:-1]
        gens = [ring.parse(part) for part in inner.split(",") if part.strip()]
        return prime_spec(ring, gens)
    raise NotPrime(f"cannot parse prime {text!r} (use p=<int>, gen=[...], or generic)")
