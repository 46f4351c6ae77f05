"""Supported base rings and their elements.

The engine works over the normal noetherian domains

    Z,  Z[x],  Q[x],  Q[x,y],  GF(p)[x],  GF(p)[x,y]

plus the zero-variable rings Q and GF(p) that arise as restriction targets
(Z/(p) is GF(p), Q[x]/(x-c) is Q, and so on).  A RingDescriptor carries the
coefficient domain and the ordered variable names; a RingElement wraps a
canonical sparse polynomial (see polyops) so that equal values are equal
objects and hashing/golden serialization are reliable.
"""

import re
from dataclasses import dataclass
from math import gcd as int_gcd, lcm

from . import polyops as P
from .errors import EngineError, UnsupportedRing, ValidationError
from .fields import DenseKernels, FuncField, GFPrime, IntegerOps, Rationals, SparseKernels
from .fields import scalar_from_coeff


@dataclass(frozen=True)
class RingDescriptor:
    coeff: object  # IntegerOps | Rationals | GFPrime
    varnames: tuple

    def __post_init__(self):
        names = self.varnames
        if len(set(names)) != len(names) or any(not _NAME_RE.fullmatch(n) for n in names):
            raise UnsupportedRing(f"bad variable names {names!r}")
        if isinstance(self.coeff, IntegerOps):
            if len(names) > 1:
                raise UnsupportedRing("at most one variable over the integers")
        elif isinstance(self.coeff, (Rationals, GFPrime)):
            if len(names) > 2:
                raise UnsupportedRing("at most two variables over a field")
        else:
            raise UnsupportedRing(f"unsupported coefficient domain {self.coeff!r}")

    @property
    def nv(self):
        return len(self.varnames)

    @property
    def is_field_ring(self):
        return self.nv == 0 and not isinstance(self.coeff, IntegerOps)

    @property
    def is_euclidean(self):
        """True for Z, a field and k[x]: the rings whose `plain` ops carry a
        division with remainder, so linalg's Hermite forms run on them."""
        if self.nv == 0:
            return True
        return self.nv == 1 and not isinstance(self.coeff, IntegerOps)

    def __repr__(self):
        c = {True: "Z"}.get(isinstance(self.coeff, IntegerOps)) or repr(self.coeff)
        return c + (f"[{','.join(self.varnames)}]" if self.varnames else "")

    def plain(self):
        """(ops, to_plain, from_plain): kernels on the canonical plain data
        of elements (the coefficient's value with no variables, a dense `u*`
        tuple in one, sparse `p*` terms in two) and the maps from a
        RingElement to that data and back.  Table loops use them instead of
        building a RingElement per operation.  Over a Euclidean ring the ops
        are IntegerOps, the field, or DenseKernels over a field, and also
        carry the divmod, unit_normalize and euclid_size that linalg's
        Hermite forms run on."""
        coeff = self.coeff
        if self.nv == 0:
            return coeff, lambda e: P.pconst_value(coeff, e.data), self.from_coeff
        if self.nv == 1:
            return (DenseKernels(coeff), lambda e: P.p_to_dense(coeff, e.data),
                    lambda u: self.element(P.p_from_dense(coeff, u)))
        return SparseKernels(coeff, self.nv), lambda e: e.data, self.element

    # element constructors

    def element(self, data):
        return RingElement(self, data)

    def zero(self):
        return self.element(P.PZERO)

    def one(self):
        return self.element(P.pone(self.coeff, self.nv))

    def from_int(self, n):
        return self.element(P.pconst(self.coeff, self.nv, self.coeff.from_int(n)))

    def from_coeff(self, c):
        return self.element(P.pconst(self.coeff, self.nv, c))

    def var(self, name):
        return self.element(P.pvar(self.coeff, self.nv, self.varnames.index(name)))

    def parse(self, text):
        return self.element(_parse_poly(text, self))

    def fraction_field(self):
        if self.is_field_ring:
            return self.coeff
        if self.nv == 0:
            return Rationals()
        base = Rationals() if isinstance(self.coeff, IntegerOps) else self.coeff
        return FuncField(base, self.varnames)

    def to_field(self, elem, field=None):
        """Image of elem in the fraction field (or any field via from_int/from_fraction)."""
        field = field or self.fraction_field()
        if self.nv == 0:
            return scalar_from_coeff(field, P.pconst_value(self.coeff, elem.data))
        # integer coefficients are already scalars of Q
        return field.from_poly(elem.data)

    def contains(self, a, field):
        """Whether the scalar a of the fraction field lies in the ring,
        decided on a itself: an int over Z, a polynomial with int
        coefficients over Z[x], a polynomial over k[vars], anything over a
        field.  Rationals and FuncField keep scalars canonical (an integral
        rational is an int, a denominator is monic), so the test is exact.
        The one integrality rule: `from_field_scalar` is built on it."""
        if self.is_field_ring:
            return True
        if self.nv == 0:
            return type(a) is int
        return field.is_polynomial(a) and (not isinstance(self.coeff, IntegerOps) or all(
            type(c) is int for _, c in field.numerator(a)))

    def from_field_scalar(self, a, field=None):
        """RingElement with the same value as the fraction-field scalar a,
        or None when a is not in the ring."""
        field = field or self.fraction_field()
        if not self.contains(a, field):
            return None
        if self.nv == 0:
            return self.from_coeff(a)
        return self.element(field.numerator(a))


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class RingElement:
    """Immutable element of a RingDescriptor in canonical sparse form."""

    __slots__ = ("ring", "data")

    def __init__(self, ring, data):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "data", data)

    def __setattr__(self, *_):
        raise AttributeError("RingElement is immutable")

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise UnsupportedRing("mixed-ring arithmetic")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElement(self.ring, P.padd(self.ring.coeff, self.data, o.data))

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, P.pneg(self.ring.coeff, self.data))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElement(self.ring, P.psub(self.ring.coeff, self.data, o.data))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElement(self.ring, P.pmul(self.ring.coeff, self.data, o.data))

    __rmul__ = __mul__

    def __pow__(self, n):
        return RingElement(self.ring, P.ppow(self.ring.coeff, self.data, n, self.ring.nv))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return isinstance(other, RingElement) and self.ring == other.ring and self.data == other.data

    def __hash__(self):
        # equal elements have equal data; the frozen ring is not re-hashed
        return hash(self.data)

    def is_zero(self):
        return not self.data

    def is_const(self):
        return P.pis_const(self.data)

    def const_value(self):
        return P.pconst_value(self.ring.coeff, self.data)

    def total_degree(self):
        return P.pdeg(self.data)

    def __str__(self):
        return P.pformat(self.data, self.ring.varnames, self.ring.coeff.to_str)

    def __repr__(self):
        return f"<{self} in {self.ring!r}>"


class RingScalars:
    """A ring as the scalar domain of an algebra table: the zero/one/add/mul/
    is_zero interface of a field, bound straight to the RingElement methods
    so a table loop pays no extra call per operation."""

    is_field = False
    add = staticmethod(RingElement.__add__)
    mul = staticmethod(RingElement.__mul__)
    is_zero = staticmethod(RingElement.is_zero)

    def __init__(self, ring):
        self.zero = ring.zero()
        self.one = ring.one()


# --- ring-level gcd, contents, exact division --------------------------------

def ring_exact_div(a, b):
    """a/b in the ring; raises EngineError when b does not divide a."""
    q = P.pexact_div(a.ring.coeff, a.data, b.data)
    if q is None:
        raise EngineError("expected exact ring division")
    return RingElement(a.ring, q)


def int_content(elem):
    """(c, primitive) for a polynomial with integer coefficients: elem =
    c * primitive with the primitive part's leading coefficient positive,
    so c carries the sign; (0, zero) for zero."""
    c, prim = _rat_clear_denoms(elem.data)
    return c, RingElement(elem.ring, prim)


def _rat_clear_denoms(data):
    """Rational-coefficient sparse terms to (c, primitive integer-coeff
    data) with data = c * primitive and the primitive leading coefficient
    positive; (0, zero) for zero."""
    den = 1
    for _, c in data:
        den = lcm(den, c.denominator)
    num_gcd = 0
    for _, c in data:
        num_gcd = int_gcd(num_gcd, int(c * den))
    if data and data[0][1] < 0:
        num_gcd = -num_gcd
    if num_gcd == 0:
        return 0, P.PZERO
    return Rationals().div(num_gcd, den), tuple((e, int(c * den) // num_gcd) for e, c in data)


def ring_gcd(a, b):
    """Gcd normalized per ring: |.| over Z, degree-lex monic over field
    coefficients, primitive positive-leading over Z[x]."""
    ring = a.ring
    if a.is_zero():
        return normalize_generator(b)
    if b.is_zero():
        return normalize_generator(a)
    coeff = ring.coeff
    if ring.nv == 0:
        if isinstance(coeff, IntegerOps):
            return ring.from_int(int_gcd(a.const_value(), b.const_value()))
        return ring.one()
    if not isinstance(coeff, IntegerOps):
        return ring.element(P.pgcd_field(coeff, ring.nv, a.data, b.data))
    # Z[x]: Gauss -- gcd of contents times primitive gcd over Q
    ca, pa = int_content(a)
    cb, pb = int_content(b)
    _, gdata = _rat_clear_denoms(P.pgcd_field(Rationals(), 1, pa.data, pb.data))
    return ring.element(gdata) * int_gcd(ca, cb)


def normalize_generator(elem):
    """Canonical generator of the principal ideal (elem)."""
    ring = elem.ring
    if elem.is_zero():
        return elem
    if isinstance(ring.coeff, IntegerOps):
        if elem.data[0][1] < 0:
            return -elem
        return elem
    return ring.element(P.pmonic_deglex(ring.coeff, elem.data))


def is_unit(elem):
    ring = elem.ring
    if not elem.is_const() or elem.is_zero():
        return False
    if isinstance(ring.coeff, IntegerOps):
        return elem.const_value() in (1, -1)
    return True


# --- parsing ------------------------------------------------------------------

# The largest exponent of a variable a parsed polynomial may carry.  Dense
# one-variable data holds one coefficient per degree, so a text such as
# d^99999999999 would otherwise allocate without bound, and the prime check
# of a generator of degree 256 over Q or a small GF(p) already takes
# seconds; the bundled algebras and the tests use exponents up to 34.
MAX_EXPONENT = 256

_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|-|/|\(|\))")


def _integer(digits):
    """The int a digit string spells; one longer than Python converts is bad
    input."""
    try:
        return int(digits)
    except ValueError as e:
        raise ValidationError(str(e)) from None


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValidationError(f"bad character in polynomial at {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _parse_poly(text, ring):
    """Parse `3*x^2*y - 1/2` style text into canonical sparse form."""
    toks = _tokenize(text)
    if not toks:
        raise ValidationError("empty polynomial")
    coeff, nv = ring.coeff, ring.nv
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        if pos == len(toks):
            raise ValidationError(f"polynomial {text!r} ends too early")
        t = toks[pos]
        pos += 1
        return t

    def parse_factor():
        t = take()
        if t.isdigit():
            num = _integer(t)
            den = 1
            if peek() == "/":
                take()
                d = take()
                if not d.isdigit():
                    raise ValidationError("expected integer denominator")
                den = _integer(d)
                if not den:
                    raise ValidationError(f"{num}/{den} has a zero denominator")
            return ("coeff", coeff.parse_coeff(num, den))
        if _NAME_RE.fullmatch(t):
            if t not in ring.varnames:
                raise ValidationError(f"unknown variable {t!r} in {ring!r}")
            k = 1
            if peek() == "^":
                take()
                e = take()
                if not e.isdigit():
                    raise ValidationError("expected integer exponent")
                k = _integer(e)
            return ("var", ring.varnames.index(t), k)
        raise ValidationError(f"unexpected token {t!r}")

    def parse_term():
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        c = coeff.from_int(sign)
        exps = [0] * nv
        while True:
            kind, *rest = parse_factor()
            if kind == "coeff":
                c = coeff.mul(c, rest[0])
            else:
                i, k = rest
                exps[i] += k
                if exps[i] > MAX_EXPONENT:
                    raise ValidationError(f"exponent {exps[i]} of {ring.varnames[i]} "
                                          f"exceeds {MAX_EXPONENT}")
            if peek() == "*":
                take()
                continue
            break
        return (tuple(exps), c)

    items = [parse_term()]
    while peek() in ("+", "-"):
        items.append(parse_term())
    if pos != len(toks):
        raise ValidationError(f"trailing input {toks[pos:]!r}")
    return P.pnorm(coeff, items)


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Strong pseudoprimes to twelve prime bases, Math.
# Comp. 86 (2017)); the bound itself is a strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime_int(n):
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:
        import sympy

        return bool(sympy.isprime(n))
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_RING_RE = re.compile(r"^(Z|Q|GF\((\d+)\))(?:\[([A-Za-z_0-9,\s]+)\])?$")


def parse_ring(text):
    """Ring descriptor from text: Z, Q, GF(p), Z[x], Q[x,y], GF(2)[x,y]."""
    m = _RING_RE.match(text.strip())
    if not m:
        raise UnsupportedRing(f"cannot parse ring {text!r}")
    head, p, vars_part = m.groups()
    if head == "Z":
        coeff = IntegerOps()
    elif head == "Q":
        coeff = Rationals()
    else:
        p = _integer(p)
        if not is_prime_int(p):
            raise UnsupportedRing(f"{p} is not prime")
        coeff = GFPrime(p)
    names = tuple(s.strip() for s in vars_part.split(",")) if vars_part else ()
    return RingDescriptor(coeff, names)
