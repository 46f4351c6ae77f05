"""Exact fields the engine computes over, and the integer coefficient domain.

Field objects double as their own descriptors: they are immutable, compare
structurally, and expose arithmetic on plain-data scalars.

    Rationals            scalars are ints when integral, fractions.Fraction
                         otherwise (never a Fraction with denominator 1)
    GFPrime(p)           scalars are ints in [0, p)
    GFExt(p, e, modulus) scalars are length-e tuples of ints (coordinates of
                         the representative polynomial, constant term first);
                         modulus is a monic irreducible dense polynomial over
                         GF(p) of degree e; zero, one and the base field are
                         built once per field, and a product is the
                         schoolbook product of the tuples in plain ints,
                         reduced by the modulus from the top
    FuncField(base, varnames)
                         rational function field over one of the above in one
                         or two variables; scalars are (num, den) pairs with
                         monic denominator and gcd(num, den) = 1.  In one
                         variable num and den are dense coefficient tuples,
                         constant term first (the polyops `u*` form, so a
                         constant is a 1-tuple); in two they are canonical
                         sparse polynomials.  The methods are written once
                         against a kernel set chosen per field.  `make`,
                         `from_poly`, `numerator` and `denominator` take and
                         give sparse polynomials in both cases, so callers
                         never see the representation.  Arithmetic pays
                         only for the data it changes: a zero operand
                         returns at once, two polynomial operands (both
                         denominators one) add and multiply without
                         canonicalizing, and the gcd is skipped whenever
                         the denominator is constant (nearly every
                         result): scaling it to one already gives the
                         canonical form; in one variable the product of
                         two constants is one base-field product

Every operation hands back canonical scalars, so a scalar is zero exactly
when it equals `F.zero` (0, the zero tuple of GF(p^e), or ((), one) in a
function field): hot loops test `c != zero` instead of calling `is_zero`.

Keeping scalars as plain data (rather than wrapper objects) keeps the dense
linear algebra loops cheap; all operations go through the owning field.
IntegerOps, Rationals, GFPrime and DenseKernels over a field also divide
with remainder (`divmod`, `unit_normalize`, `euclid_size`): they are the
Euclidean rings Z, Q, GF(p) and k[x] that linalg's Hermite forms run on.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import polyops as P
from .errors import EngineError, ValidationError


@dataclass(frozen=True)
class IntegerOps:
    """The ring of integers as a coefficient domain (not a field)."""

    is_field = False
    characteristic = 0
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return n

    def exact_div(self, a, b):
        q, r = divmod(a, b)
        return q if r == 0 else None

    def divmod(self, a, b):
        return divmod(a, b)

    def unit_normalize(self, a):
        """(u, a*u) with the unit u = ±1 making a*u nonnegative."""
        return (1, a) if a >= 0 else (-1, -a)

    def euclid_size(self, a):
        return abs(a)

    def to_str(self, a):
        return str(a)

    def parse_coeff(self, num, den):
        if num % den:
            raise ValidationError(f"{num}/{den} is not an integer coefficient")
        return num // den


class _FieldEuclid:
    """A field as a Euclidean ring: every nonzero element is a unit, so a
    division leaves no remainder and every nonzero element has size 0."""

    def divmod(self, a, b):
        return self.div(a, b), self.zero

    def unit_normalize(self, a):
        """(u, a*u) with a*u one, or (one, a) for zero."""
        return (self.one, a) if self.is_zero(a) else (self.inv(a), self.one)

    def euclid_size(self, a):
        return 0


@dataclass(frozen=True)
class Rationals(_FieldEuclid):
    """Q.  A scalar is an int when it is integral and a Fraction otherwise.

    Nearly every rational the engine meets is an integer, and int
    arithmetic is many times cheaper than Fraction arithmetic, so every
    operation hands back `r.numerator` when its result has denominator 1.
    Both types compare, hash and print alike (3 == Fraction(3)), so the
    choice never shows in a report or a memo key.  Division builds a
    Fraction from its operands: `/` on two ints would give a float.
    """

    is_field = True
    characteristic = 0
    zero = 0
    one = 1

    def add(self, a, b):
        r = a + b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def sub(self, a, b):
        r = a - b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def mul(self, a, b):
        r = a * b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def neg(self, a):
        return -a

    def inv(self, a):
        return self.div(1, a)

    def div(self, a, b):
        r = Fraction(a, b)
        return r if r.denominator != 1 else r.numerator

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return n

    def from_fraction(self, q):
        """The scalar of an int or a Fraction (a float has no denominator
        and fails here rather than entering the field)."""
        return q if type(q) is int or q.denominator != 1 else q.numerator

    def sort_key(self, a):
        return a

    def to_str(self, a):
        return str(a)

    def parse_coeff(self, num, den):
        return self.div(num, den)

    def __repr__(self):
        return "Q"


@dataclass(frozen=True)
class GFPrime(_FieldEuclid):
    p: int

    is_field = True

    @property
    def characteristic(self):
        return self.p

    zero = 0
    one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, q):
        return self.div(q.numerator % self.p, q.denominator % self.p)

    def sort_key(self, a):
        return a

    def to_str(self, a):
        return str(a)

    def parse_coeff(self, num, den):
        q = Fraction(num, den)
        if not q.denominator % self.p:
            raise ValidationError(f"{num}/{den} has no value in GF({self.p})")
        return self.from_fraction(q)

    def size(self):
        return self.p

    def __repr__(self):
        return f"GF({self.p})"


@dataclass(frozen=True)
class GFExt:
    p: int
    e: int
    modulus: tuple  # dense over GF(p), length e + 1, monic

    is_field = True

    @property
    def characteristic(self):
        return self.p

    @cached_property
    def base(self):
        return GFPrime(self.p)

    @cached_property
    def zero(self):
        return (0,) * self.e

    @cached_property
    def one(self):
        return (1,) + (0,) * (self.e - 1)

    def _pad(self, dense):
        return tuple(dense) + (0,) * (self.e - len(dense))

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        """The schoolbook product in plain ints, reduced by the monic
        modulus from the top, with one `% p` per coefficient."""
        p, e, mod = self.p, self.e, self.modulus
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    prod[j] += x * y
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k] % p
            if c:
                for i in range(e):
                    prod[k - e + i] -= c * mod[i]
        return tuple(c % p for c in prod[:e])

    def is_zero(self, a):
        return not any(a)

    def inv(self, a):
        gf = self.base
        r0, r1 = self.modulus, P.utrim(gf, a)
        if not r1:
            raise ZeroDivisionError("inverse of zero in GF(p^e)")
        s0, s1 = (), (1,)
        while r1:
            q, r = P.udivmod(gf, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, P.usub(gf, s0, P.umul(gf, q, s1))
        lc_inv = gf.inv(r0[-1])
        return self._pad(P.uscale(gf, s0, lc_inv))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n):
        return self._pad((n % self.p,) if n % self.p else ())

    def gen(self):
        """The class of the modulus variable."""
        return self._pad(P.umod(GFPrime(self.p), (0, 1), self.modulus))

    def sort_key(self, a):
        return tuple(a)

    def to_str(self, a):
        gf = self.base
        return P.pformat(P.p_from_dense(gf, P.utrim(gf, a)), ("a",), str)

    def size(self):
        return self.p ** self.e

    def __repr__(self):
        return f"GF({self.p}^{self.e})"


class SparseKernels:
    """Polynomials over a coefficient domain as canonical sparse term tuples
    (the polyops `p*` kernels): k[vars] for a FuncField, and the element
    data of a two-variable ring."""

    is_zero = staticmethod(P.pis_zero)

    def __init__(self, base, nv):
        self.base, self.nv = base, nv
        self.one = P.pone(base, nv)

    def add(self, a, b):
        return P.padd(self.base, a, b)

    def sub(self, a, b):
        return P.psub(self.base, a, b)

    def neg(self, a):
        return P.pneg(self.base, a)

    def mul(self, a, b):
        return P.pmul(self.base, a, b)

    def scale(self, a, c):
        return P.pscale(self.base, a, c)

    def gcd(self, a, b):
        return P.pgcd_field(self.base, self.nv, a, b)

    def exact_div(self, a, b):
        q = P.pexact_div(self.base, a, b)
        if q is None:
            raise EngineError("division not exact")
        return q

    def at(self, a, point):
        return P.peval(self.base, a, self.base, lambda c: c, point)

    is_const = staticmethod(P.pis_const)

    @staticmethod
    def lead(a):
        """Degree-lexicographically leading coefficient."""
        return a[0][1]

    @staticmethod
    def to_sparse(a):
        return a

    @staticmethod
    def from_sparse(a):
        return a


class DenseKernels:
    """Polynomials in one variable over a coefficient domain as dense
    coefficient tuples, constant term first (the polyops `u*` kernels): k[d]
    for a FuncField, and the element data of a one-variable ring."""

    zero = ()

    @staticmethod
    def is_zero(a):
        return not a

    def __init__(self, base):
        self.base = base
        self.one = (base.one,)

    def add(self, a, b):
        return P.uadd(self.base, a, b)

    def sub(self, a, b):
        return P.usub(self.base, a, b)

    def neg(self, a):
        return P.uneg(self.base, a)

    def mul(self, a, b):
        return P.umul(self.base, a, b)

    def scale(self, a, c):
        return P.uscale(self.base, a, c)

    def gcd(self, a, b):
        return P.ugcd(self.base, a, b)

    def exact_div(self, a, b):
        return P.uexact_div(self.base, a, b)

    # k[x] as a Euclidean ring (over a field base only)

    def divmod(self, a, b):
        return P.udivmod(self.base, a, b)

    def unit_normalize(self, a):
        """(u, a*u) with a*u monic, or (one, a) for zero."""
        if not a:
            return self.one, a
        inv = self.base.inv(a[-1])
        return (inv,), P.uscale(self.base, a, inv)

    @staticmethod
    def euclid_size(a):
        return len(a) - 1

    def at(self, a, point):
        """a(x) by Horner's rule, for the one coordinate x of point."""
        B = self.base
        (x,) = point
        acc = B.zero
        for c in reversed(a):
            acc = B.add(B.mul(acc, x), c)
        return acc

    @staticmethod
    def is_const(a):
        return len(a) <= 1

    @staticmethod
    def lead(a):
        return a[-1]

    def to_sparse(self, a):
        return P.p_from_dense(self.base, a)

    def from_sparse(self, a):
        return P.p_to_dense(self.base, a)


@dataclass(frozen=True)
class FuncField:
    base: object
    varnames: tuple

    is_field = True

    @property
    def characteristic(self):
        return self.base.characteristic

    @property
    def nv(self):
        return len(self.varnames)

    @cached_property
    def _k(self):
        """The polynomial kernels of this field's scalar representation."""
        if self.nv == 1:
            return DenseKernels(self.base)
        return SparseKernels(self.base, self.nv)

    # built once per field: scalars are immutable, so every caller can share them
    @cached_property
    def zero(self):
        return ((), self._k.one)

    @cached_property
    def one(self):
        u = self._k.one
        return (u, u)

    def make(self, num, den):
        """Canonical scalar from a sparse numerator/denominator pair."""
        k = self._k
        return self._canon(k.from_sparse(num), k.from_sparse(den))

    def _canon(self, num, den):
        """Canonical scalar from a numerator/denominator pair in this
        field's representation."""
        if not den:
            raise ZeroDivisionError("zero denominator in function field")
        if not num:
            return self.zero
        base, k = self.base, self._k
        if k.is_const(den):
            # a constant denominator has gcd 1 with num: scaling it to one
            # gives the canonical pair the gcd path below would give
            c = k.lead(den)
            if c == base.one:
                return (num, den)
            return (k.scale(num, base.inv(c)), k.one)
        g = k.gcd(num, den)
        if not k.is_const(g):
            num = k.exact_div(num, g)
            den = k.exact_div(den, g)
        lc = k.lead(den)
        if not base.is_zero(base.sub(lc, base.one)):
            inv = base.inv(lc)
            num = k.scale(num, inv)
            den = k.scale(den, inv)
        return (num, den)

    # A canonical constant denominator is one, so the sum, difference or
    # product of two polynomials is already canonical over it: no _canon.

    def add(self, a, b):
        (na, da), (nb, db) = a, b
        if not na:
            return b
        if not nb:
            return a
        k = self._k
        if k.is_const(da) and k.is_const(db):
            n = k.add(na, nb)
            return (n, da) if n else self.zero
        return self._canon(k.add(k.mul(na, db), k.mul(nb, da)), k.mul(da, db))

    def sub(self, a, b):
        (na, da), (nb, db) = a, b
        k = self._k
        if not nb:
            return a
        if not na:
            return (k.neg(nb), db)
        if k.is_const(da) and k.is_const(db):
            n = k.sub(na, nb)
            return (n, da) if n else self.zero
        return self._canon(k.sub(k.mul(na, db), k.mul(nb, da)), k.mul(da, db))

    def neg(self, a):
        return (self._k.neg(a[0]), a[1])

    def mul(self, a, b):
        (na, da), (nb, db) = a, b
        if not na or not nb:
            return self.zero
        k = self._k
        if k.is_const(da) and k.is_const(db):
            if len(na) == len(nb) == 1 and self.nv == 1:
                return ((self.base.mul(na[0], nb[0]),), da)
            return (k.mul(na, nb), da)
        return self._canon(k.mul(na, nb), k.mul(da, db))

    def inv(self, a):
        if not a[0]:
            raise ZeroDivisionError("inverse of zero in function field")
        return self._canon(a[1], a[0])

    def div(self, a, b):
        (na, da), (nb, db) = a, b
        if not nb:
            raise ZeroDivisionError("division by zero in function field")
        k = self._k
        return self._canon(k.mul(na, db), k.mul(da, nb))

    def is_zero(self, a):
        return not a[0]

    def from_int(self, n):
        return self.from_poly(P.pconst(self.base, self.nv, self.base.from_int(n)))

    def from_fraction(self, q):
        return self.from_poly(P.pconst(self.base, self.nv, self.base.from_fraction(q)))

    def from_poly(self, p):
        """Scalar from a sparse polynomial over the base coefficient field."""
        k = self._k
        return (k.from_sparse(p), k.one)

    def var_scalar(self, i):
        return self.from_poly(P.pvar(self.base, self.nv, i))

    def is_polynomial(self, a):
        return self._k.is_const(a[1])

    def evaluate(self, a, point):
        """The value of a at a point of base^nv (one base scalar per
        variable), or None when its denominator vanishes there."""
        k, base = self._k, self.base
        den = k.at(a[1], point)
        if base.is_zero(den):
            return None
        return base.div(k.at(a[0], point), den)

    def numerator(self, a):
        """The numerator as a sparse polynomial."""
        return self._k.to_sparse(a[0])

    def denominator(self, a):
        """The (monic) denominator as a sparse polynomial."""
        return self._k.to_sparse(a[1])

    def sort_key(self, a):
        bk = self.base.sort_key
        return (P.pkey(bk, self.numerator(a)), P.pkey(bk, self.denominator(a)))

    def to_str(self, a):
        num, den = self.numerator(a), self.denominator(a)
        ns = P.pformat(num, self.varnames, self.base.to_str)
        if P.pis_const(den):
            return ns
        ds = P.pformat(den, self.varnames, self.base.to_str)
        if len(num) > 1:
            ns = "(" + ns + ")"
        if len(den) > 1:
            ds = "(" + ds + ")"
        return ns + "/" + ds

    def __repr__(self):
        return f"{self.base!r}({','.join(self.varnames)})"


def scalar_from_coeff(field, c):
    """Embed a base-ring coefficient (an int, or a Fraction of a Q
    coefficient ring) into a field."""
    if isinstance(c, Fraction):
        return field.from_fraction(c)
    return field.from_int(c)
