"""Factorization routines.

Integers are factored by trial division with an explicit budget (the
engine's discriminants are tiny).  Univariate polynomials over GF(q) go
through squarefree decomposition, distinct-degree splitting and
Cantor-Zassenhaus equal-degree splitting, and their irreducibility test
is Ben-Or's, which needs no splitting.  Over Q rational roots are found
first; sympy factors only a root-free cofactor of degree 4 or more, and
every polynomial over a rational function field Q(vars), and the result is
renormalized to monic canonical form.  sympy is imported on first use there,
so a run that needs neither never loads it.

This is the only module that picks a factorizer: `factor_dense` and
`is_irreducible` pick it by the coefficient field, `factor_univariate`
covers Z[x] as well as Q[x] and GF(p)[x] (over Z[x] the primes of the
content, then the primitive factors by Gauss's lemma), and `factor_pieces`
gives the chop its factors over every fiber field, k(vars) included.

Dense polynomials here follow the polyops "u" conventions (ascending
coefficient tuples); the RingElement-level entry points convert at the
boundary.
"""

import random
from math import gcd

from . import polyops as P
from .errors import EngineError, FactorBudgetExceeded, UnsupportedRing
from .fields import FuncField, GFPrime, Rationals
from .rings import RingElement, _rat_clear_denoms, is_prime_int

QQ = Rationals()

DEFAULT_TRIAL_LIMIT = 10**6


def factor_integer(n, limit=None):
    """(unit, [(prime, multiplicity), ...]) with unit in {1, -1}.  A
    cofactor left over past the trial-division budget is accepted when it
    is prime."""
    limit = limit or DEFAULT_TRIAL_LIMIT
    if n == 0:
        raise EngineError("cannot factor zero")
    unit = 1 if n > 0 else -1
    n = abs(n)
    out = []
    d = 2
    while d * d <= n and d <= limit:
        if n % d == 0:
            m = 0
            while n % d == 0:
                n //= d
                m += 1
            out.append((d, m))
        d += 1 if d == 2 else 2
    if n > 1:
        if d * d <= n and not is_prime_int(n):
            raise FactorBudgetExceeded(f"cofactor {n} exceeds trial-division budget {limit}")
        out.append((n, 1))
    return unit, out


# --- squarefree decomposition over a field ------------------------------------

def _scalar_pow(F, a, n):
    r = F.one
    while n:
        if n & 1:
            r = F.mul(r, a)
        a = F.mul(a, a)
        n >>= 1
    return r


def _pth_root_poly(F, f):
    """p-th root of f = g(x^p) over a finite field (a perfect field)."""
    p = F.characteristic
    q = F.size()
    out = [F.zero] * ((len(f) - 1) // p + 1)
    for i, c in enumerate(f):
        if F.is_zero(c):
            continue
        if i % p:
            raise EngineError("polynomial is not a p-th power")
        out[i // p] = _scalar_pow(F, c, q // p)
    return P.utrim(F, out)


def squarefree_decomposition(F, f):
    """[(g, m), ...] with the g monic squarefree pairwise coprime and
    f = lc * prod g^m.  Over characteristic p the perfect-field p-th root
    rule handles vanishing derivatives (finite fields only)."""
    f = P.umonic(F, f)
    out = []

    def rec(f, mult):
        if P.udeg(f) < 1:
            return
        fp = P.uderiv(F, f)
        if not fp:
            rec(_pth_root_poly(F, f), mult * F.characteristic)
            return
        g = P.ugcd(F, f, fp)
        w = P.uexact_div(F, f, g)
        i = 1
        while P.udeg(w) > 0:
            y = P.ugcd(F, w, g)
            z = P.uexact_div(F, w, y)
            if P.udeg(z) > 0:
                out.append((z, mult * i))
            w = y
            g = P.uexact_div(F, g, y)
            i += 1
        if P.udeg(g) > 0:
            rec(_pth_root_poly(F, g), mult * F.characteristic)

    rec(f, 1)
    out.sort(key=lambda t: P.ukey(F, t[0]))
    return out


def squarefree_part_safe(F, f):
    """Largest squarefree-by-gcd divisor obtainable without p-th roots.

    Over imperfect fields (function fields in characteristic p) a vanishing
    derivative cannot always be repaired; the remaining inseparable part is
    kept as is, which is all the gcd-free machinery needs.
    """
    f = P.umonic(F, f)
    if P.udeg(f) < 1:
        return f
    fp = P.uderiv(F, f)
    if not fp:
        return f
    g = P.ugcd(F, f, fp)
    return P.uexact_div(F, f, g)


# --- finite-field factorization (Cantor-Zassenhaus) ---------------------------

def _ddf(F, f):
    """Distinct-degree split of a monic squarefree f: yields (product,
    degree) by increasing degree, each part only when it is asked for."""
    q = F.size()
    h = (F.zero, F.one)  # x
    d = 0
    while P.udeg(f) > 0:
        d += 1
        if 2 * d > P.udeg(f):
            yield f, P.udeg(f)
            return
        h = P.upow_mod(F, h, q, f)
        g = P.ugcd(F, P.usub(F, h, (F.zero, F.one)), f)
        if P.udeg(g) > 0:
            yield g, d
            f = P.uexact_div(F, f, g)
            h = P.umod(F, h, f)


def _random_upoly(F, deg, rng):
    if isinstance(F, GFPrime):
        coeffs = [rng.randrange(F.p) for _ in range(deg)]
    else:
        coeffs = [tuple(rng.randrange(F.p) for _ in range(F.e)) for _ in range(deg)]
    return P.utrim(F, coeffs)


def _edf(F, f, d, rng):
    """Equal-degree split of monic squarefree f, all factors of degree d."""
    n = P.udeg(f)
    if n == d:
        return [f]
    q = F.size()
    while True:
        r = _random_upoly(F, n, rng)
        if P.udeg(r) < 1:
            continue
        g = P.ugcd(F, r, f)
        if 0 < P.udeg(g) < n:
            break
        if q % 2 == 1:
            s = P.upow_mod(F, r, (q**d - 1) // 2, f)
        else:
            # trace map for characteristic 2
            k = q.bit_length() - 1  # q = 2^k
            s = P.umod(F, r, f)
            t = s
            for _ in range(k * d - 1):
                t = P.upow_mod(F, t, 2, f)
                s = P.uadd(F, s, t)
        g = P.ugcd(F, P.usub(F, s, (F.one,)), f)
        if 0 < P.udeg(g) < n:
            break
    return _edf(F, g, d, rng) + _edf(F, P.uexact_div(F, f, g), d, rng)


def factor_gf(F, f):
    """(unit scalar, [(monic irreducible, mult)]) over GF(q).  A monic
    factorization is unique and the pairs are sorted by `ukey`, so the
    splitting polynomials, drawn from one Random(1) per call, change only
    the work done."""
    if not f:
        raise EngineError("cannot factor zero")
    unit = f[-1]
    rng = random.Random(1)
    out = {}
    for g, mult in squarefree_decomposition(F, f):
        for part, d in _ddf(F, g):
            for irr in _edf(F, part, d, rng):
                irr = P.umonic(F, irr)
                out[irr] = out.get(irr, 0) + mult
    pairs = sorted(out.items(), key=lambda t: P.ukey(F, t[0]))
    return unit, pairs


def is_irreducible_gf(F, f):
    """Ben-Or's test: a squarefree f of degree n is irreducible exactly when
    it has no factor of degree i <= n/2, that is when the first part of its
    distinct-degree split has degree n.  Only that part is computed: the
    split stops at the first i where gcd(x^(q^i) - x, f) is nontrivial."""
    n = P.udeg(f)
    if n < 1:
        return False
    f = P.umonic(F, f)
    fp = P.uderiv(F, f)
    if not fp or P.udeg(P.ugcd(F, f, fp)) > 0:
        return False  # f' = 0 makes f a p-th power, a common factor a square
    return next(_ddf(F, f))[1] == n


# --- rational factorization (rational roots, then sympy) -----------------------

# a squarefree part with more rational-root candidates than this goes to sympy
MAX_ROOT_CANDIDATES = 256


def _rational_roots(g):
    """The rational roots of a squarefree g over Q, from the candidates ±p/q
    with p | a0 and q | an of its primitive integer form; None past
    MAX_ROOT_CANDIDATES candidates or the trial-division budget."""
    a = P.p_to_dense(QQ, _rat_clear_denoms(P.p_from_dense(QQ, g))[1])
    roots = [0] if a[0] == 0 else []
    a = a[len(roots):]  # squarefree: x divides it at most once
    try:
        nums, dens = (_divisors(abs(c), MAX_ROOT_CANDIDATES) for c in (a[0], a[-1]))
    except FactorBudgetExceeded:
        return None
    if 2 * len(nums) * len(dens) > MAX_ROOT_CANDIDATES:
        return None
    for p in nums:
        for q in dens:
            for r in (p, -p) if gcd(p, q) == 1 else ():
                acc, qpow = a[-1], 1  # q^n g(r/q) in integers, by Horner
                for c in reversed(a[:-1]):
                    qpow *= q
                    acc = acc * r + c * qpow
                if acc == 0:
                    roots.append(QQ.div(r, q))
    return roots


def _divisors(n, limit):
    divs = [1]
    for p, m in factor_integer(n, limit)[1]:
        divs = [d * p**k for d in divs for k in range(m + 1)]
    return divs


def factor_qq(f):
    """(unit, [(monic dense, mult)]) for f over Q, scalars as in Rationals:
    each squarefree part sheds its rational roots, a root-free cofactor of
    degree at most 3 is irreducible, and sympy factors the rest."""
    if not f:
        raise EngineError("cannot factor zero")
    out = []
    for g, mult in squarefree_decomposition(QQ, f):
        roots = _rational_roots(g)
        for r in roots or ():
            g = P.uexact_div(QQ, g, (QQ.neg(r), 1))
            out.append(((QQ.neg(r), 1), mult))
        if roots is None or P.udeg(g) > 3:
            out += [(h, mult) for h in _factor_qq_sympy(g)]
        elif P.udeg(g) > 0:
            out.append((g, mult))
    out.sort(key=lambda t: P.ukey(QQ, t[0]))
    return f[-1], out


def _factor_qq_sympy(g):
    """The monic irreducible factors of a monic squarefree nonconstant g
    over Q, by sympy."""
    import sympy

    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(g)],
                      sympy.Symbol("x"), domain="QQ")
    return [P.umonic(QQ, tuple(QQ.parse_coeff(int(c.p), int(c.q))
                               for c in reversed(h.all_coeffs())))
            for h, _ in poly.factor_list()[1]]


# --- factorization over Q(vars) (via sympy) ------------------------------------

def factor_funcfield(F, f):
    """[(monic irreducible, mult)] for a nonconstant f over F = Q(vars).

    sympy factors over QQ.frac_field(vars) exactly; scalars cross as
    numerator/denominator term dicts.  The polynomial variable is a Dummy
    because the ring variables may themselves be called x or t.
    """
    import sympy

    K = sympy.QQ.frac_field(*[sympy.Symbol(v) for v in F.varnames])
    R = K.field.ring

    def to_sympy(p):
        return R.from_dict({e: sympy.QQ(c.numerator, c.denominator) for e, c in p})

    def from_sympy(p):
        return P.pnorm(F.base, [(e, F.base.parse_coeff(int(c.numerator), int(c.denominator)))
                                for e, c in p.items()])

    coeffs = [K.field.new(to_sympy(F.numerator(c)), to_sympy(F.denominator(c)))
              for c in reversed(f)]
    poly = sympy.Poly.from_list(coeffs, sympy.Dummy("X"), domain=K)
    out = []
    for fac, mult in poly.factor_list()[1]:
        dense = tuple(F.make(from_sympy(c.numer), from_sympy(c.denom))
                      for c in reversed(fac.monic().rep.to_list()))
        out.append((dense, mult))
    out.sort(key=lambda t: P.ukey(F, t[0]))
    return out


# --- one factorizer per field ---------------------------------------------------

def factor_dense(F, f):
    """(unit, [(monic irreducible, mult)]) for a nonzero dense f over Q or
    GF(q): rational roots then sympy over Q, Cantor-Zassenhaus over GF(q)."""
    if isinstance(F, Rationals):
        return factor_qq(f)
    return factor_gf(F, f)


def is_irreducible(F, f):
    """Whether the dense f is irreducible over Q (by factoring) or over
    GF(q) (by Ben-Or's test)."""
    if isinstance(F, Rationals):
        if P.udeg(f) < 1:
            return False
        _, pairs = factor_qq(f)
        return len(pairs) == 1 and pairs[0][1] == 1
    return is_irreducible_gf(F, f)


def factor_pieces(F, chi):
    """Factors of a nonconstant dense chi over a fiber field to take kernels
    of, each tagged with whether it is certified irreducible.

    Over Q, GF(q) and Q(vars): the irreducible factors.  Over GF(p)(vars):
    a chi with constant coefficients factors over the constant field;
    otherwise the squarefree part is the one piece, uncertified unless
    linear.
    """
    if not isinstance(F, FuncField):
        return [(f, True) for f, _ in factor_dense(F, chi)[1]]
    base = F.base
    if all(F.is_polynomial(c) and P.pis_const(F.numerator(c)) for c in chi):
        consts = tuple(P.pconst_value(base, F.numerator(c)) for c in chi)
        lift = lambda f: tuple(F.from_poly(P.pconst(base, F.nv, c)) for c in f)
        return [(lift(f), True) for f, _ in factor_dense(base, consts)[1]]
    if F.characteristic == 0:
        return [(f, True) for f, _ in factor_funcfield(F, chi)]
    f = squarefree_part_safe(F, chi)
    return [(f, P.udeg(f) == 1)]


# --- RingElement-level entry points --------------------------------------------

def factor_univariate(elem):
    """Factor a nonzero polynomial of Z[x], Q[x] or GF(p)[x].

    Returns (unit, [(factor, multiplicity), ...]) with pairwise-distinct
    factors, irreducible in the ring; unit times the product reproduces the
    input exactly.  Over a field the factors are monic.  Over Z[x] they are
    the primes of the content, then the factors over Q of the primitive
    part scaled to primitive positive-leading polynomials, which are its
    factors in Z[x] (Gauss's lemma); the unit is the sign.
    """
    ring = elem.ring
    if ring.nv != 1:
        raise UnsupportedRing(f"no univariate factorization over {ring!r}")
    if elem.is_zero():
        raise EngineError("cannot factor zero")
    coeff = ring.coeff
    if coeff.is_field:
        unit, pairs = factor_dense(coeff, P.p_to_dense(coeff, elem.data))
        mk = lambda d: RingElement(ring, P.p_from_dense(coeff, d))
        return ring.from_coeff(unit), [(mk(d), m) for d, m in pairs]
    content, prim = _rat_clear_denoms(elem.data)
    unit, pairs = factor_integer(content)
    out = [(ring.from_int(p), m) for p, m in pairs]
    for f, m in factor_qq(P.p_to_dense(QQ, prim))[1]:
        out.append((ring.element(_rat_clear_denoms(P.p_from_dense(QQ, f))[1]), m))
    return ring.from_int(unit), out
