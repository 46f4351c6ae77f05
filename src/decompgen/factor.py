"""Factorization routines.

Integers are factored by trial division with an explicit budget (the
engine's discriminants are tiny).  Univariate polynomials over GF(q) go
through squarefree decomposition, distinct-degree splitting and seeded
Cantor-Zassenhaus equal-degree splitting; over Q the heavy lifting is
delegated to sympy and the result is renormalized to monic canonical form.

Dense polynomials here follow the polyops "u" conventions (ascending
coefficient tuples); the RingElement-level entry points convert at the
boundary.
"""

import random
from fractions import Fraction
from math import lcm

import sympy

from . import polyops as P
from .errors import EngineError, FactorBudgetExceeded, UnsupportedRing
from .fields import GFPrime, Rationals
from .rings import IntegerOps, RingElement, int_content, is_prime_int

DEFAULT_TRIAL_LIMIT = 10**6


def factor_integer(n, limit=None):
    """(unit, [(prime, multiplicity), ...]) with unit in {1, -1}.  A
    cofactor left over past the trial-division budget is accepted when it
    is prime."""
    limit = limit or DEFAULT_TRIAL_LIMIT
    if n == 0:
        raise ValueError("cannot factor zero")
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
    out.sort(key=lambda t: (P.udeg(t[0]), tuple(F.sort_key(c) for c in reversed(t[0]))))
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
    """Distinct-degree split of a monic squarefree f: [(product, degree)]."""
    q = F.size()
    out = []
    h = (F.zero, F.one)  # x
    d = 0
    while P.udeg(f) > 0:
        d += 1
        if 2 * d > P.udeg(f):
            out.append((f, P.udeg(f)))
            break
        h = P.upow_mod(F, h, q, f)
        g = P.ugcd(F, P.usub(F, h, (F.zero, F.one)), f)
        if P.udeg(g) > 0:
            out.append((g, d))
            f = P.uexact_div(F, f, g)
            h = P.umod(F, h, f)
    return out


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


def factor_gf(F, f, seed=1):
    """(unit scalar, [(monic irreducible, mult)]) over GF(q), deterministic."""
    if not f:
        raise ValueError("cannot factor zero")
    unit = f[-1]
    rng = random.Random(seed)
    out = {}
    for g, mult in squarefree_decomposition(F, f):
        for part, d in _ddf(F, g):
            for irr in _edf(F, part, d, rng):
                irr = P.umonic(F, irr)
                out[irr] = out.get(irr, 0) + mult
    pairs = sorted(out.items(), key=lambda t: (P.udeg(t[0]), tuple(F.sort_key(c) for c in reversed(t[0]))))
    return unit, pairs


def is_irreducible_gf(F, f, seed=1):
    if P.udeg(f) < 1:
        return False
    _, pairs = factor_gf(F, f, seed)
    return len(pairs) == 1 and pairs[0][1] == 1


# --- rational factorization (via sympy) ----------------------------------------

_X = sympy.Symbol("x")


def factor_qq(f):
    """(unit Fraction, [(monic dense over Fraction, mult)]) for f over Q."""
    if not f:
        raise ValueError("cannot factor zero")
    F = Rationals()
    if P.udeg(f) == 0:
        return f[0], []
    poly = sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator) for c in f])), _X, domain="QQ")
    const, flist = poly.factor_list()
    unit = Fraction(int(const.p), int(const.q))
    out = []
    for fac, mult in flist:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs())]
        dense = P.utrim(F, tuple(coeffs))
        lc = dense[-1]
        if lc != 1:
            unit *= lc**mult
            dense = P.umonic(F, dense)
        out.append((dense, mult))
    out.sort(key=lambda t: (P.udeg(t[0]), tuple(reversed(t[0]))))
    return unit, out


def is_irreducible_qq(f):
    if P.udeg(f) < 1:
        return False
    _, pairs = factor_qq(f)
    return len(pairs) == 1 and pairs[0][1] == 1


# --- linear factors over rational function fields -------------------------------
#
# Splitting modules over k(d) needs linear factors X - r(d) of characteristic
# polynomials.  Full bivariate factorization is out of scope, but polynomial
# roots r in k[d] (which is what split fibers produce) can be found by Newton
# lifting from a sample point d = c where the specialized polynomial is
# squarefree, then verified exactly.  The routine is sound (everything is
# verified) and complete for roots lying in k[d] up to the degree bound.

def _series_mul(k, a, b, N):
    out = [k.zero] * min(N, len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if k.is_zero(x):
            continue
        for j, y in enumerate(b):
            if i + j >= N:
                break
            out[i + j] = k.add(out[i + j], k.mul(x, y))
    return out


def _series_inv(k, a, N):
    inv0 = k.inv(a[0])
    out = [inv0] + [k.zero] * (N - 1)
    for i in range(1, N):
        acc = k.zero
        for j in range(1, min(i, len(a) - 1) + 1):
            acc = k.add(acc, k.mul(a[j], out[i - j]))
        out[i] = k.neg(k.mul(inv0, acc))
    return out


def _series_add(k, a, b):
    n = max(len(a), len(b))
    return [k.add(a[i] if i < len(a) else k.zero, b[i] if i < len(b) else k.zero)
            for i in range(n)]


def _shift_poly_series(k, dense, c, N):
    """g(c + t) mod t^N for a dense 1-variable polynomial over k."""
    out = [k.zero]
    for coeff in reversed(dense):
        # out = out * (c + t) + coeff
        shifted = [k.zero] + list(out[: N - 1])
        scaled = [k.mul(x, c) for x in out]
        out = _series_add(k, shifted, scaled)
        out = out[:N] if len(out) > N else out
        if not out:
            out = [k.zero]
        out[0] = k.add(out[0], coeff)
    return out


def _eval_series_poly(k, coeff_series, r, N):
    """Evaluate sum_j coeff_series[j] * r^j mod t^N."""
    acc = [k.zero]
    for cs in reversed(coeff_series):
        acc = _series_mul(k, acc, r, N)
        if not acc:
            acc = [k.zero]
        acc = _series_add(k, acc, cs)[:N]
    return acc


def _sample_points(base):
    from .fields import GFExt as _GFExt, GFPrime as _GFPrime, Rationals as _Rationals

    if isinstance(base, _Rationals):
        for i in range(0, 25):
            yield Fraction(i)
            if i:
                yield Fraction(-i)
    elif isinstance(base, (_GFPrime, _GFExt)):
        for a in base.elements():
            yield a


def funcfield_polynomial_roots(F, chi, max_deg=80):
    """Roots in k[vars] of a monic squarefree chi over a one-variable
    rational function field F = k(d).  Exactly verified; may miss roots
    only by declining (degree bound or no good sample point), never by
    returning a wrong one."""
    base = F.base
    if F.nv != 1 or P.udeg(chi) < 2:
        return []
    m = P.udeg(chi)
    # clear denominators: common_den = lcm of the coefficient denominators
    common = P.pone(base, 1)
    for s in chi:
        den = s[1]
        g = P.pgcd_field(base, 1, common, den)
        common = P.pexact_div(base, P.pmul(base, common, den), g)
    cleared = []
    for s in chi:
        num, den = s
        mult = P.pexact_div(base, common, den)
        cleared.append(P.p_to_dense(base, P.pmul(base, num, mult)))
    D = max((len(g) - 1 for g in cleared if g), default=0)
    if D > max_deg:
        return []
    N = D + 1
    lead = cleared[-1]
    for c in _sample_points(base):
        if base.is_zero(P.ueval(base, lead, c)):
            continue
        spec = tuple(P.ueval(base, g, c) for g in cleared)
        spec = P.utrim(base, spec)
        if P.udeg(spec) != m:
            continue
        der = P.uderiv(base, spec)
        if P.udeg(P.ugcd(base, spec, der)) > 0:
            continue
        from .fields import Rationals as _Rationals

        if isinstance(base, _Rationals):
            _, pairs = factor_qq(P.umonic(base, spec))
        else:
            _, pairs = factor_gf(base, spec)
        root0s = [base.div(base.neg(f[0]), f[1]) for f, _ in pairs if P.udeg(f) == 1]
        if not root0s:
            return []
        coeff_series = [_shift_poly_series(base, g, c, N) for g in cleared]
        der_series = [
            _series_mul(base, [base.from_int(j)], coeff_series[j], N)
            for j in range(1, len(coeff_series))
        ]
        roots = []
        for r0 in root0s:
            r = [r0]
            prec = 1
            ok = True
            while prec < N:
                prec = min(2 * prec, N)
                val = _eval_series_poly(base, [cs[:prec] for cs in coeff_series], r, prec)
                dval = _eval_series_poly(base, [cs[:prec] for cs in der_series], r, prec)
                if base.is_zero(dval[0]):
                    ok = False
                    break
                corr = _series_mul(base, val, _series_inv(base, dval, prec), prec)
                r = _series_add(base, r, [base.neg(x) for x in corr])[:prec]
            if not ok:
                continue
            # shift back: candidate(d) = r(d - c)
            rpoly = ()
            for coeff in reversed(r):
                shift = P.p_from_dense(base, (base.neg(c), base.one))
                rpoly = P.padd(base, P.pmul(base, rpoly, shift), P.pconst(base, 1, coeff))
            cand = F.from_poly(rpoly)
            if F.is_zero(P.ueval(F, chi, cand)):
                roots.append(cand)
        seen = []
        for r in roots:
            if r not in seen:
                seen.append(r)
        return sorted(seen, key=F.sort_key)
    return []


# --- RingElement-level entry points --------------------------------------------

def factor_univariate(elem, seed=1):
    """Factor a nonzero univariate polynomial over Q[x] or GF(p)[x].

    Returns (unit, [(factor, multiplicity), ...]) with monic irreducible
    pairwise-distinct factors; unit times the product reproduces the input
    exactly.
    """
    ring = elem.ring
    if ring.nv != 1:
        raise UnsupportedRing("factor_univariate needs a one-variable polynomial ring")
    if elem.is_zero():
        raise ValueError("cannot factor zero")
    coeff = ring.coeff
    dense = P.p_to_dense(coeff, elem.data)
    if isinstance(coeff, Rationals):
        unit, pairs = factor_qq(dense)
    elif isinstance(coeff, GFPrime):
        unit, pairs = factor_gf(coeff, dense, seed)
    else:
        raise UnsupportedRing(f"no univariate factorization over {ring!r}")
    mk = lambda d: RingElement(ring, P.p_from_dense(coeff, d))
    return ring.from_coeff(unit), [(mk(d), m) for d, m in pairs]


def factor_zx_primitive(elem, seed=1):
    """Factor over Z[x]: (unit, [(factor, mult)]) with integer primes and
    primitive positive-leading irreducible integer polynomials as factors."""
    ring = elem.ring
    if not isinstance(ring.coeff, IntegerOps) or ring.nv != 1:
        raise UnsupportedRing("expected Z[x]")
    if elem.is_zero():
        raise ValueError("cannot factor zero")
    content, prim = int_content(elem)
    unit = 1 if content > 0 else -1
    out = []
    for p, m in factor_integer(abs(content))[1]:
        out.append((ring.from_int(p), m))
    if prim.total_degree() >= 1:
        dense = P.p_to_dense(Rationals(), tuple((e, Fraction(c)) for e, c in prim.data))
        _, pairs = factor_qq(dense)
        for fac, m in pairs:
            den = 1
            for c in fac:
                den = lcm(den, c.denominator)
            zdata = P.p_from_dense(IntegerOps(), tuple(int(c * den) for c in fac))
            _, zfac = int_content(RingElement(ring, zdata))
            out.append((zfac, m))
    return ring.from_int(unit), out
