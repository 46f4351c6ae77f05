"""Exact polynomial arithmetic kernels.

Two representations live here, both canonical so that equality of values is
equality of Python objects:

sparse multivariate ("p" functions)
    A polynomial in nv variables is a tuple of (exponents, coeff) pairs with
    exponents a tuple of nv nonnegative ints, coefficients nonzero elements
    of a coefficient domain, and terms sorted by degree-lexicographic order,
    largest first.  The zero polynomial is the empty tuple.

dense univariate ("u" functions)
    A polynomial is a tuple of coefficients, constant term first, with no
    trailing zeros.  The zero polynomial is the empty tuple.  These kernels
    serve the numerators and denominators of one-variable function-field
    scalars (fields.FuncField), GF(p^e) arithmetic and the factorizers.

All functions take the coefficient domain as an explicit first argument.  A
domain is any object with zero/one attributes and add/sub/mul/neg/is_zero
methods; fields additionally provide inv and div.  Integer arithmetic uses
plain ints through the same interface.  Every domain used here is an
integral domain, so scaling by a nonzero scalar neither creates a zero
coefficient nor changes the term order.

`padd` and `psub` require canonical operands: they merge the two sorted
term lists in one pass instead of re-sorting through `pnorm`.  Build a
polynomial from arbitrary terms with `pnorm`.
"""

from .errors import EngineError


def term_key(exps):
    return (sum(exps), exps)


def pnorm(dom, items):
    acc = {}
    for exps, c in items:
        if exps in acc:
            acc[exps] = dom.add(acc[exps], c)
        else:
            acc[exps] = c
    pairs = [(e, c) for e, c in acc.items() if not dom.is_zero(c)]
    pairs.sort(key=lambda t: term_key(t[0]), reverse=True)
    return tuple(pairs)


PZERO = ()


def pconst(dom, nv, c):
    if dom.is_zero(c):
        return PZERO
    return (((0,) * nv, c),)


def pone(dom, nv):
    return pconst(dom, nv, dom.one)


def pvar(dom, nv, i):
    e = [0] * nv
    e[i] = 1
    return ((tuple(e), dom.one),)


def pis_zero(p):
    return not p


def pis_const(p):
    return not p or (len(p) == 1 and not any(p[0][0]))


def pconst_value(dom, p):
    """Constant term of p (the value itself if p is constant)."""
    if not p:
        return dom.zero
    e, c = p[-1]
    return c if not any(e) else dom.zero


def padd(dom, a, b):
    """Sum of two canonical polynomials by one merge of their sorted terms."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (ea, ca), (eb, cb) = a[i], b[j]
        ka, kb = term_key(ea), term_key(eb)
        if ka > kb:
            out.append(a[i])
            i += 1
        elif ka < kb:
            out.append(b[j])
            j += 1
        else:
            c = dom.add(ca, cb)
            if not dom.is_zero(c):
                out.append((ea, c))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def pneg(dom, a):
    return tuple((e, dom.neg(c)) for e, c in a)


def psub(dom, a, b):
    return padd(dom, a, pneg(dom, b))


def pscale(dom, a, c):
    # no re-sort: over an integral domain the products stay nonzero and in order
    if dom.is_zero(c):
        return PZERO
    mul = dom.mul
    return tuple((e, mul(x, c)) for e, x in a)


def pmul(dom, a, b):
    if not a or not b:
        return PZERO
    items = []
    for ea, ca in a:
        for eb, cb in b:
            items.append((tuple(x + y for x, y in zip(ea, eb)), dom.mul(ca, cb)))
    return pnorm(dom, items)


def ppow(dom, a, n, nv):
    r = pone(dom, nv)
    for _ in range(n):
        r = pmul(dom, r, a)
    return r


def pdeg(p):
    """Total degree; -1 for the zero polynomial."""
    return sum(p[0][0]) if p else -1


def pdeg_in(p, i):
    return max((e[i] for e, _ in p), default=-1)


def pderiv(dom, p, i):
    items = []
    for e, c in p:
        if e[i]:
            ne = list(e)
            ne[i] -= 1
            items.append((tuple(ne), dom.mul(c, dom.from_int(e[i]))))
    return pnorm(dom, items)


def pexact_div(dom, a, b):
    """Quotient a/b when the division is exact, else None."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return PZERO
    eb, cb = b[0]
    quo = []
    rem = a
    while rem:
        ea, ca = rem[0]
        de = tuple(x - y for x, y in zip(ea, eb))
        if any(x < 0 for x in de):
            return None
        if getattr(dom, "is_field", False):
            q = dom.div(ca, cb)
        else:
            q = dom.exact_div(ca, cb)
            if q is None:
                return None
        quo.append((de, q))
        rem = psub(dom, rem, pmul(dom, ((de, q),), b))
    return pnorm(dom, quo)


def peval(dom, p, field, coeff_map, images):
    """Evaluate p in a field: coefficients through coeff_map, variable i at images[i]."""
    powers = [{0: field.one} for _ in images]
    out = field.zero
    for e, c in p:
        term = coeff_map(c)
        for i, k in enumerate(e):
            cache = powers[i]
            if k not in cache:
                base = max(x for x in cache if x <= k)
                v = cache[base]
                for _ in range(base, k):
                    v = field.mul(v, images[i])
                cache[k] = v
            term = field.mul(term, cache[k])
        out = field.add(out, term)
    return out


def p_to_dense(dom, p):
    """nv == 1 sparse polynomial to dense tuple."""
    if not p:
        return ()
    d = p[0][0][0]
    out = [dom.zero] * (d + 1)
    for e, c in p:
        out[e[0]] = c
    return tuple(out)


def p_from_dense(dom, coeffs):
    return pnorm(dom, [((i,), c) for i, c in enumerate(coeffs)])


def p_embed(p, i):
    """The one-variable sparse p as a two-variable polynomial in the
    variable of index i.  Its terms keep their order, which is degree order
    in both forms."""
    return tuple(((k, 0) if i == 0 else (0, k), c) for (k,), c in p)


def p_rec(p, main):
    """Split a 2-variable polynomial by powers of variable `main`.

    Returns a dict mapping the degree in `main` to a 1-variable polynomial
    in the other variable.
    """
    other = 1 - main
    out = {}
    for e, c in p:
        out.setdefault(e[main], []).append(((e[other],), c))
    return out


def plead_coeff_in(dom, p, main):
    """Leading coefficient of a 2-variable p w.r.t. variable `main`, as a
    2-variable polynomial not involving `main`."""
    d = pdeg_in(p, main)
    items = []
    for e, c in p:
        if e[main] == d:
            ne = list(e)
            ne[main] = 0
            items.append((tuple(ne), c))
    return pnorm(dom, items)


def pmonic_deglex(dom, p):
    """Scale so the degree-lexicographically leading coefficient is one."""
    if not p:
        return p
    lc = p[0][1]
    if dom.is_zero(dom.sub(lc, dom.one)):
        return p
    return pscale(dom, p, dom.inv(lc))


def _prem(dom, f, g, main):
    """Pseudo-remainder of f by g w.r.t. variable `main` (2 variables)."""
    dg = pdeg_in(g, main)
    lcg = plead_coeff_in(dom, g, main)
    r = f
    while r and pdeg_in(r, main) >= dg:
        dr = pdeg_in(r, main)
        lcr = plead_coeff_in(dom, r, main)
        e = [0, 0]
        e[main] = dr - dg
        shift = ((tuple(e), dom.one),)
        r = psub(dom, pmul(dom, r, lcg), pmul(dom, pmul(dom, lcr, shift), g))
    return r


def _content_in(dom, p, main):
    """Content of a 2-variable p w.r.t. `main`: gcd of its coefficient
    polynomials in the other variable, returned as a 2-variable polynomial."""
    cont = PZERO
    for part in p_rec(p, main).values():
        cont = pgcd_field(dom, 1, cont, part)
    return p_embed(cont, 1 - main)


def pgcd_field(dom, nv, a, b):
    """Monic gcd over a coefficient field, nv <= 2 variables."""
    if not a:
        return pmonic_deglex(dom, b)
    if not b:
        return pmonic_deglex(dom, a)
    if nv == 0:
        return pone(dom, 0)
    if nv == 1:
        ga = ugcd(dom, p_to_dense(dom, a), p_to_dense(dom, b))
        return p_from_dense(dom, ga)
    main = 1 if max(pdeg_in(a, 1), pdeg_in(b, 1)) <= max(pdeg_in(a, 0), pdeg_in(b, 0)) else 0
    if pdeg_in(a, main) == 0 and pdeg_in(b, main) == 0:
        main = 1 - main
    ca, cb = _content_in(dom, a, main), _content_in(dom, b, main)
    cg = pgcd_field(dom, nv, ca, cb) if (pdeg(ca) > 0 or pdeg(cb) > 0) else pone(dom, nv)
    fa = pexact_div(dom, a, ca)
    fb = pexact_div(dom, b, cb)
    if pdeg_in(fa, main) < pdeg_in(fb, main):
        fa, fb = fb, fa
    while fb and pdeg_in(fb, main) > 0:
        r = _prem(dom, fa, fb, main)
        if r:
            rc = _content_in(dom, r, main)
            r = pexact_div(dom, r, rc)
        fa, fb = fb, r
    pp = fa if not fb else pone(dom, nv)
    return pmonic_deglex(dom, pmul(dom, cg, pp))


def pformat(p, varnames, coeff_str):
    """Canonical text form: terms in degree-lex order, `^` powers, `*` products."""
    if not p:
        return "0"
    parts = []
    for e, c in p:
        cs = coeff_str(c)
        mono = "*".join(
            n if k == 1 else f"{n}^{k}" for n, k in zip(varnames, e) if k
        )
        if not mono:
            term = cs
        elif cs == "1":
            term = mono
        elif cs == "-1":
            term = "-" + mono
        else:
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = "(" + cs + ")"
            term = cs + "*" + mono
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def pkey(base_key, p):
    """Total-order sort key for canonical sparse polynomials."""
    return tuple((term_key(e), base_key(c)) for e, c in p)


# --- dense univariate over a field -----------------------------------------

UZERO = ()


def utrim(dom, coeffs):
    coeffs = list(coeffs)
    while coeffs and dom.is_zero(coeffs[-1]):
        coeffs.pop()
    return tuple(coeffs)


def udeg(p):
    return len(p) - 1


def ukey(dom, p):
    """Total-order sort key for dense polynomials: degree first, then the
    coefficients from the leading one down."""
    return (udeg(p), tuple(dom.sort_key(c) for c in reversed(p)))


def uadd(dom, a, b):
    """a + b with one base addition per coefficient the two share: the rest
    of the longer operand is kept as is, and only a sum of two equal
    degrees can cancel its lead."""
    if len(a) < len(b):
        a, b = b, a
    head = tuple(map(dom.add, a, b))
    if len(a) > len(b):
        return head + a[len(b):]
    return utrim(dom, head)


def uneg(dom, a):
    return tuple(dom.neg(c) for c in a)


def usub(dom, a, b):
    """a - b, costed like uadd."""
    head = tuple(map(dom.sub, a, b))
    if len(a) > len(b):
        return head + a[len(b):]
    if len(a) < len(b):
        return head + uneg(dom, b[len(a):])
    return utrim(dom, head)


def uscale(dom, a, c):
    if dom.is_zero(c):
        return UZERO
    return tuple(dom.mul(x, c) for x in a)


def umul(dom, a, b):
    if not a or not b:
        return UZERO
    # a constant factor c != 0 scales the other one: over an integral domain
    # c*x is nonzero for every nonzero x, so the lead stays nonzero
    if len(a) == 1:
        c, mul = a[0], dom.mul
        return tuple(mul(c, y) for y in b)
    if len(b) == 1:
        c, mul = b[0], dom.mul
        return tuple(mul(x, c) for x in a)
    out = [dom.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if dom.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = dom.add(out[i + j], dom.mul(x, y))
    return utrim(dom, out)


def udivmod(dom, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = dom.inv(lb)
    quo = [dom.zero] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        da = len(a) - 1
        q = dom.mul(a[-1], inv_lb)
        quo[da - db] = q
        for i in range(db + 1):
            a[da - db + i] = dom.sub(a[da - db + i], dom.mul(q, b[i]))
        while a and dom.is_zero(a[-1]):
            a.pop()
    return utrim(dom, quo), utrim(dom, a)


def umod(dom, a, b):
    return udivmod(dom, a, b)[1]


def umonic(dom, a):
    if not a:
        return a
    lc = a[-1]
    if dom.is_zero(dom.sub(lc, dom.one)):
        return a
    return uscale(dom, a, dom.inv(lc))


def ugcd(dom, a, b):
    while b:
        a, b = b, umod(dom, a, b)
    return umonic(dom, a)


def uderiv(dom, a):
    return utrim(dom, [dom.mul(c, dom.from_int(i)) for i, c in enumerate(a) if i >= 1])


def upow_mod(dom, a, n, m):
    """a**n mod m by square and multiply."""
    r = (dom.one,)
    a = umod(dom, a, m)
    while n:
        if n & 1:
            r = umod(dom, umul(dom, r, a), m)
        a = umod(dom, umul(dom, a, a), m)
        n >>= 1
    return r


def uexact_div(dom, a, b):
    """Quotient a/b; a remainder is a failed internal check (EngineError)."""
    q, r = udivmod(dom, a, b)
    if r:
        raise EngineError("division not exact")
    return q
