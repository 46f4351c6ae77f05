"""Arithmetic layer: ring/field axioms, reductions, denominators, factoring."""

import itertools
import random
import re
import signal
import time
from fractions import Fraction

import pytest

from decompgen import polyops as P
from decompgen.errors import (
    FactorBudgetExceeded,
    NotPrime,
    NotReducible,
    UnsupportedResidueField,
    UnsupportedRestriction,
    ValidationError,
)
from decompgen.factor import (
    factor_gf,
    factor_integer,
    factor_univariate,
    factor_funcfield,
    is_irreducible_gf,
    squarefree_decomposition,
)
from decompgen.fields import FuncField, GFExt, GFPrime, IntegerOps, Rationals
from decompgen.primes import (
    denominator_ideal,
    generic_point,
    parse_prime,
    prime_spec,
    reduce_elem,
    reduce_scalar,
    ring_quotient,
)
from decompgen.rings import MAX_EXPONENT, is_prime_int, is_unit, parse_ring, ring_gcd
from oracles import elements

RINGS = ["Z", "Z[x]", "Q[x]", "Q[x,y]", "GF(2)[x]", "GF(5)[x,y]"]


def random_element(ring, rng, size=3):
    terms = []
    for _ in range(rng.randrange(0, size + 1)):
        exps = tuple(rng.randrange(0, 3) for _ in range(ring.nv))
        c = rng.randint(-6, 6)
        terms.append((exps, c))
    out = ring.zero()
    for exps, c in terms:
        t = ring.from_int(c)
        for i, e in enumerate(exps):
            t = t * ring.var(ring.varnames[i]) ** e
        out = out + t
    return out


@pytest.mark.parametrize("ring_str", RINGS)
def test_ring_axioms_randomized(ring_str):
    ring = parse_ring(ring_str)
    rng = random.Random(ring_str)
    for _ in range(1000):
        a, b, c = (random_element(ring, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + ring.zero() == a
        assert a * ring.one() == a
        assert a + (-a) == ring.zero()


PLAIN_RINGS = ["Z", "Q", "GF(5)", "Z[d]", "Q[d]", "GF(5)[d]", "Q[x,y]"]


def plain_element(ring, rng):
    """random_element, with a random denominator over Q."""
    e = random_element(ring, rng)
    if isinstance(ring.coeff, Rationals):
        e = e * ring.from_coeff(ring.coeff.div(1, rng.randint(1, 4)))
    return e


@pytest.mark.parametrize("ring_str", PLAIN_RINGS)
def test_plain_kernels(ring_str):
    """plain() round-trips elements and its ops match the ring's arithmetic;
    on Z, Q, GF(5) and k[d] they also divide with remainder and normalize
    by a unit, as the Hermite forms of linalg need."""
    ring = parse_ring(ring_str)
    ops, to_plain, from_plain = ring.plain()
    rng = random.Random(41)
    elems = [plain_element(ring, rng) for _ in range(60)]
    for a, b in zip(elems, elems[1:]):
        pa, pb = to_plain(a), to_plain(b)
        assert from_plain(pa) == a
        assert from_plain(ops.add(pa, pb)) == a + b
        assert from_plain(ops.mul(pa, pb)) == a * b
        assert ops.is_zero(pa) == a.is_zero()
    assert ring.is_euclidean == (ring_str not in ("Z[d]", "Q[x,y]"))
    if not ring.is_euclidean:
        return
    for a, b in zip(elems, elems[1:]):
        pa, pb = to_plain(a), to_plain(b)
        if not b.is_zero():
            q, r = ops.divmod(pa, pb)
            assert from_plain(q) * b + from_plain(r) == a
            assert ops.is_zero(r) or ops.euclid_size(r) < ops.euclid_size(pb)
        u, c = ops.unit_normalize(pa)
        assert is_unit(from_plain(u)) and from_plain(u) * a == from_plain(c)
        if a.is_zero():
            assert ops.is_zero(c)
        elif ring.nv == 1:
            assert c[-1] == ring.coeff.one  # monic
        elif ring.coeff.is_field:
            assert c == ring.coeff.one
        else:
            assert c > 0


FIELDS = [
    Rationals(),
    GFPrime(5),
    GFExt(2, 2, (1, 1, 1)),
    FuncField(Rationals(), ("x",)),
    FuncField(GFPrime(3), ("x", "y")),
]


def random_scalar(F, rng):
    if isinstance(F, Rationals):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if isinstance(F, GFPrime):
        return rng.randrange(F.p)
    if isinstance(F, GFExt):
        return tuple(rng.randrange(F.p) for _ in range(F.e))
    num = ring_like_poly(F, rng)
    den = ring_like_poly(F, rng)
    while P.pis_zero(den):
        den = ring_like_poly(F, rng)
    return F.make(num, den)


def ring_like_poly(F, rng):
    base, nv = F.base, F.nv
    items = []
    for _ in range(rng.randrange(0, 3)):
        exps = tuple(rng.randrange(0, 3) for _ in range(nv))
        items.append((exps, base.from_int(rng.randint(-4, 4))))
    return P.pnorm(base, items)


@pytest.mark.parametrize("F", FIELDS, ids=lambda f: repr(f))
def test_field_axioms_randomized(F):
    rng = random.Random(7)
    n = 150 if isinstance(F, FuncField) else 1000
    for _ in range(n):
        a, b, c = (random_scalar(F, rng) for _ in range(3))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == F.zero
        if not F.is_zero(a):
            assert F.mul(a, F.inv(a)) == F.one


def test_parse_bounds_each_exponent():
    """The bound holds per variable, after the powers of one term are summed;
    a larger exponent is refused before any polynomial is built."""
    R = parse_ring("GF(5)[x,y]")
    m = MAX_EXPONENT
    assert R.parse(f"x^{m}*y^{m} + 1").total_degree() == 2 * m
    for text in (f"x^{m + 1}", f"x^{m}*y*x", f"y^{10**12} - 1"):
        with pytest.raises(ValidationError, match=rf"^exponent \d+ of [xy] exceeds {m}$"):
            R.parse(text)


def test_reduce_examples():
    Z = parse_ring("Z")
    p2 = prime_spec(Z, [Z.from_int(2)])
    assert reduce_elem(Z.from_int(6), p2) == 0
    Qx = parse_ring("Q[x]")
    p = prime_spec(Qx, [Qx.parse("x - 1")])
    assert reduce_elem(Qx.parse("x^2 + 1"), p) == Fraction(2)
    Zx = parse_ring("Z[x]")
    p3 = prime_spec(Zx, [Zx.from_int(3)])
    v = reduce_elem(Zx.parse("3*x"), p3)
    assert p3.residue_field.is_zero(v)


@pytest.mark.parametrize("ring_str", RINGS)
def test_reduce_is_ring_morphism(ring_str):
    ring = parse_ring(ring_str)
    specs = [generic_point(ring)]
    if ring_str == "Z":
        specs.append(prime_spec(ring, [ring.from_int(7)]))
    elif ring_str == "Z[x]":
        specs.append(prime_spec(ring, [ring.from_int(5)]))
        specs.append(prime_spec(ring, [ring.parse("x - 2")]))
        specs.append(prime_spec(ring, [ring.from_int(2), ring.parse("x^2 + x + 1")]))
    elif ring_str == "GF(2)[x]":
        specs.append(prime_spec(ring, [ring.parse("x^2 + x + 1")]))
    elif ring_str == "Q[x]":
        specs.append(prime_spec(ring, [ring.parse("x + 2")]))
    elif ring_str == "Q[x,y]":
        specs.append(prime_spec(ring, [ring.parse("y - x^2")]))
        specs.append(prime_spec(ring, [ring.parse("x - 1"), ring.parse("y - 2")]))
    elif ring_str == "GF(5)[x,y]":
        specs.append(prime_spec(ring, [ring.parse("x^2 + 2")]))
    rng = random.Random(11)
    for spec in specs:
        F = spec.residue_field
        for _ in range(50):
            a, b = random_element(ring, rng), random_element(ring, rng)
            assert reduce_elem(a + b, spec) == F.add(reduce_elem(a, spec), reduce_elem(b, spec))
            assert reduce_elem(a * b, spec) == F.mul(reduce_elem(a, spec), reduce_elem(b, spec))


def test_denominator_ideal_examples():
    Z = parse_ring("Z")
    assert denominator_ideal(Fraction(3, 2), Z) == Z.from_int(2)
    assert denominator_ideal(Fraction(5), Z) == Z.from_int(1)
    Qx = parse_ring("Q[x]")
    K = Qx.fraction_field()
    alpha = K.make(Qx.parse("x + 1").data, Qx.parse("x^2").data)
    assert denominator_ideal(alpha, Qx) == Qx.parse("x^2")
    # over Z[x] rational contents matter
    Zx = parse_ring("Z[x]")
    KZ = Zx.fraction_field()
    alpha = KZ.from_fraction(Fraction(3, 2))
    assert denominator_ideal(alpha, Zx) == Zx.from_int(2)
    beta = KZ.mul(KZ.from_fraction(Fraction(1, 2)), KZ.var_scalar(0))  # x/2
    assert denominator_ideal(beta, Zx) == Zx.from_int(2)


def test_denominator_ideal_times_alpha_in_ring():
    rng = random.Random(3)
    for ring_str in ("Z", "Q[x]", "Z[x]", "GF(2)[x]"):
        ring = parse_ring(ring_str)
        K = ring.fraction_field()
        for _ in range(100):
            num = random_element(ring, rng)
            den = random_element(ring, rng)
            if den.is_zero():
                continue
            if ring_str == "Z":
                alpha = Fraction(num.const_value(), den.const_value())
                g = denominator_ideal(alpha, ring)
                assert (alpha * g.const_value()).denominator == 1
            else:
                alpha = K.div(ring.to_field(num, K), ring.to_field(den, K))
                g = denominator_ideal(alpha, ring)
                prod = K.mul(alpha, ring.to_field(g, K))
                assert ring.from_field_scalar(prod, K) is not None


def test_localization_membership():
    Z = parse_ring("Z")
    assert reduce_scalar(Fraction(3, 2), prime_spec(Z, [Z.from_int(3)])) == 0
    assert reduce_scalar(Fraction(3, 2), prime_spec(Z, [Z.from_int(5)])) == 4
    with pytest.raises(NotReducible):
        reduce_scalar(Fraction(3, 2), prime_spec(Z, [Z.from_int(2)]))
    Qx = parse_ring("Q[x]")
    K = Qx.fraction_field()
    alpha = K.make(Qx.parse("x + 1").data, Qx.parse("x").data)
    p = prime_spec(Qx, [Qx.parse("x - 1")])
    assert reduce_scalar(alpha, p) == Fraction(2)


def test_factor_integer():
    assert factor_integer(108) == (1, [(2, 2), (3, 3)])
    assert factor_integer(1) == (1, [])
    assert factor_integer(-6) == (-1, [(2, 1), (3, 1)])
    with pytest.raises(FactorBudgetExceeded):
        factor_integer((10**7 + 19) * (10**7 + 79), limit=10**4)
    # a prime cofactor past the trial budget is accepted
    m61 = 2**61 - 1
    assert factor_integer(2 * m61) == (1, [(2, 1), (m61, 1)])


def test_is_prime_int():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(-3, 500) if is_prime_int(n)] == [
        n for n in range(-3, 500) if trial(n)]
    t0 = time.perf_counter()
    assert is_prime_int(2**61 - 1)
    assert not is_prime_int((2**31 - 1) * (2**61 - 1))
    assert time.perf_counter() - t0 < 1.0
    # Miller-Rabin on the first 13 primes is exact below 3317044064679887385961981
    # and hands larger n to sympy; the strong pseudoprimes are the least ones to
    # the first k prime bases for k = 1..12, so a prefix of the bases that
    # stops short of 41 takes one of them for a prime
    import sympy

    rng = random.Random(1)
    cases = list(range(-3, 200000))
    cases += [rng.getrandbits(rng.randrange(1, 82)) for _ in range(20000)]
    cases += [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461,
              3317044064679887385961981, 561, 1105, 2**89 - 1, 2**127 - 1]
    wrong = [n for n in cases if is_prime_int(n) != sympy.isprime(n)]
    assert not wrong, wrong[:5]


def test_factor_univariate_examples():
    Qx = parse_ring("Q[x]")
    unit, pairs = factor_univariate(Qx.parse("x^2 - 1"))
    assert [(str(f), m) for f, m in pairs] == [("x - 1", 1), ("x + 1", 1)]
    F2x = parse_ring("GF(2)[x]")
    unit, pairs = factor_univariate(F2x.parse("x^2 + x + 1"))
    assert [(str(f), m) for f, m in pairs] == [("x^2 + x + 1", 1)]
    unit, pairs = factor_univariate(F2x.parse("x^4 + 1"))
    assert [(str(f), m) for f, m in pairs] == [("x + 1", 4)]


@pytest.mark.parametrize("ring_str,seed", [("Q[x]", 5), ("GF(2)[x]", 6), ("GF(5)[x]", 7)])
def test_factor_reconstructs_input(ring_str, seed):
    ring = parse_ring(ring_str)
    rng = random.Random(seed)
    for _ in range(40):
        f = random_element(ring, rng, size=4)
        if f.is_zero():
            continue
        unit, pairs = factor_univariate(f)
        prod = unit
        for fac, m in pairs:
            prod = prod * fac**m
        assert prod == f


def test_factor_zx():
    # the primes of the content, then the primitive factors (Gauss's lemma)
    Zx = parse_ring("Z[x]")
    for text, unit, labels in [
        ("2*x^2 - 2", "1", [("2", 1), ("x - 1", 1), ("x + 1", 1)]),
        ("-6*x^3 + 6*x", "-1", [("2", 1), ("3", 1), ("x - 1", 1), ("x", 1), ("x + 1", 1)]),
        ("4*x^2 + 4*x + 1", "1", [("2*x + 1", 2)]),
    ]:
        u, pairs = factor_univariate(Zx.parse(text))
        assert (str(u), [(str(f), m) for f, m in pairs]) == (unit, labels)


QQ = Rationals()


def _factor_qq_reference(f):
    """factor_qq's normal form read off sympy's factor_list: the leading
    coefficient, then monic factors in ukey order."""
    import sympy

    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f)],
                      sympy.Symbol("x"), domain="QQ")
    pairs = [(tuple(QQ.from_fraction(Fraction(int(c.p), int(c.q)))
                    for c in reversed(g.monic().all_coeffs())), m)
             for g, m in poly.factor_list()[1]]
    return f[-1], sorted(pairs, key=lambda t: P.ukey(QQ, t[0]))


def _qq_product(*factors):
    out = (1,)
    for g in factors:
        out = P.umul(QQ, out, tuple(QQ.from_fraction(Fraction(c)) for c in g))
    return out


def test_factor_qq_matches_sympy(monkeypatch):
    """Rational roots ±p/q, root-free cofactors of degree 2 and 3, and the
    sympy route for the rest give sympy's factorization: seeded non-monic
    products with repeated factors and large constant terms; an irreducible
    quartic, two quadratics, a quintic, a constant term past the
    trial-division budget and one with too many root candidates, which go
    to sympy; and products of roots and root-free cubics, which do not."""
    from decompgen import factor

    sympy_calls = []
    real = factor._factor_qq_sympy
    monkeypatch.setattr(factor, "_factor_qq_sympy", lambda g: sympy_calls.append(g) or real(g))
    rng = random.Random(11)
    for _ in range(60):
        parts = [(Fraction(rng.randint(1, 7) * rng.choice((-1, 1)), rng.randint(1, 5)),)]
        for _ in range(rng.randint(1, 4)):
            g = [rng.randint(-9, 9) for _ in range(rng.choice((1, 1, 2, 3)))]
            if rng.random() < 0.3:
                g[0] = rng.choice((-1, 1)) * rng.randint(10**4, 10**6)
            parts += [g + [rng.choice((1, 2, 3, 5, -4))]] * rng.randint(1, 3)
        f = _qq_product(*parts)
        assert factor.factor_qq(f) == _factor_qq_reference(f), f
    on_sympy = [[(1, 0, 0, 0, 1)], [(1, 0, 1), (2, 0, 1)], [(-1, -1, 0, 0, 0, 1)],
                [(-1009 * 1013, 1)], [(720720, 0, 1), (3, 1)]]
    # x^2 + x + 1 and 3x^3 + 2 sit in squarefree parts of their own
    off_sympy = [[(-1, 3), (2, 1), (0, 1)], [(1, 1, 1), (2, 0, 0, 3), (2, 0, 0, 3), (-5, 4)]]
    for parts, stays_on_sympy in [(p, True) for p in on_sympy] + [(p, False) for p in off_sympy]:
        f = _qq_product(*parts)
        sympy_calls.clear()
        assert factor.factor_qq(f) == _factor_qq_reference(f), f
        assert bool(sympy_calls) == stays_on_sympy, f


def test_factor_gfq():
    F4 = GFExt(2, 2, (1, 1, 1))
    # x^2 + x + a splits over GF(4)? brute force check by refactoring
    rng = random.Random(1)
    for _ in range(25):
        dense = tuple(tuple(rng.randrange(2) for _ in range(2)) for _ in range(4))
        dense = P.utrim(F4, dense)
        if P.udeg(dense) < 1:
            continue
        unit, pairs = factor_gf(F4, dense)
        prod = (unit,)
        for fac, m in pairs:
            for _ in range(m):
                prod = P.umul(F4, prod, fac)
        assert prod == dense


def _irreducible_by_factoring(F, f):
    _, pairs = factor_gf(F, f)
    return len(pairs) == 1 and pairs[0][1] == 1


@pytest.mark.parametrize("F", [GFPrime(2), GFPrime(3)], ids=repr)
def test_irreducibility_test_matches_factoring_exhaustively(F):
    """Ben-Or's test against a full factorization on every monic
    polynomial of degree at most 4."""
    for deg in range(1, 5):
        for low in itertools.product(elements(F), repeat=deg):
            f = low + (F.one,)
            assert is_irreducible_gf(F, f) == _irreducible_by_factoring(F, f), f


@pytest.mark.parametrize("F", [GFPrime(5), GFExt(2, 2, (1, 1, 1))], ids=repr)
def test_irreducibility_test_matches_factoring_seeded(F):
    """The same on seeded polynomials of degree up to 8, squares and
    products of two irreducibles among them, with leading coefficients
    other than one."""
    rng = random.Random(17)
    elems = list(elements(F))
    nonzero = [c for c in elems if not F.is_zero(c)]

    def rand(deg):
        return tuple(rng.choice(elems) for _ in range(deg)) + (rng.choice(nonzero),)

    for _ in range(150):
        f = rand(rng.randrange(1, 9))
        if rng.random() < 0.3:
            g = rand(rng.randrange(1, 4))
            f = P.umul(F, g, g if rng.random() < 0.5 else rand(rng.randrange(1, 4)))
        assert is_irreducible_gf(F, f) == _irreducible_by_factoring(F, f), f
    assert not is_irreducible_gf(F, (F.one,))


def test_prime_check_stops_at_the_first_factor_degree():
    """(1000003, d^256 + d + 2) is not prime, and the check says so within
    10 s: it stops at the smallest degree of a factor instead of factoring
    the generator."""
    Zd = parse_ring("Z[d]")

    def too_slow(signum, frame):
        raise TimeoutError("prime check ran over 10 s")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        with pytest.raises(NotPrime, match="is reducible over GF"):
            parse_prime("gen=[1000003, d^256 + d + 2]", Zd)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_squarefree_decomposition_char_p():
    F2 = GFPrime(2)
    # (x+1)^4 has vanishing derivative twice over
    f = (1, 0, 0, 0, 1)  # x^4 + 1 = (x+1)^4
    out = squarefree_decomposition(F2, f)
    assert out == [((1, 1), 4)]


def _expand(F, factors):
    out = (F.one,)
    for f in factors:
        out = P.umul(F, out, f)
    return out


def test_factor_funcfield():
    K = FuncField(Rationals(), ("d",))
    d = K.var_scalar(0)
    one = K.one
    # (X - d)(X - (d^2+1))
    r1, r2 = d, K.add(K.mul(d, d), one)
    lin1, lin2 = (K.neg(r1), one), (K.neg(r2), one)
    assert factor_funcfield(K, _expand(K, [lin1, lin2])) == [(lin1, 1), (lin2, 1)]
    # (t - x)(t - y)(t^2 - x*y - 1) over Q(x, y): the ring variables must not
    # collide with the polynomial variable sympy factors in
    L = FuncField(Rationals(), ("x", "y"))
    x, y = L.var_scalar(0), L.var_scalar(1)
    quad = (L.neg(L.add(L.mul(x, y), L.one)), L.zero, L.one)
    factors = [(L.neg(x), L.one), (L.neg(y), L.one), quad]
    chi = _expand(L, factors + [factors[0]])
    out = factor_funcfield(L, chi)
    assert sorted(out, key=str) == sorted([(factors[0], 2), (factors[1], 1), (quad, 1)], key=str)
    # a denominator survives the round trip through sympy
    half_x = L.div(x, L.from_int(2 * 3))
    inv_y = L.inv(y)
    lin3, lin4 = (half_x, L.one), (inv_y, L.one)
    assert sorted(factor_funcfield(L, _expand(L, [lin3, lin4])), key=str) == sorted(
        [(lin3, 1), (lin4, 1)], key=str)


def test_prime_validation():
    Z = parse_ring("Z")
    with pytest.raises(NotPrime):
        prime_spec(Z, [Z.from_int(4)])
    Qx = parse_ring("Q[x]")
    with pytest.raises(NotPrime):
        prime_spec(Qx, [Qx.parse("x^2 - 1")])
    with pytest.raises(UnsupportedResidueField):
        prime_spec(Qx, [Qx.parse("x^2 - 2")])  # residue field Q(sqrt 2)
    Zx = parse_ring("Z[x]")
    with pytest.raises(NotPrime):
        prime_spec(Zx, [Zx.parse("2*x + 2")])  # content 2
    spec = prime_spec(Zx, [Zx.parse("2*x - 1")])  # residue Q at x = 1/2
    assert reduce_elem(Zx.parse("x^2"), spec) == Fraction(1, 4)
    with pytest.raises(UnsupportedResidueField):
        prime_spec(Zx, [Zx.parse("x^2 - 2")])


def test_parse_prime():
    Z = parse_ring("Z")
    assert parse_prime("p=3", Z).short_str() == "(3)"
    assert parse_prime("generic", Z).is_generic
    with pytest.raises(NotPrime):
        parse_prime("gen=[4]", Z)
    Qd = parse_ring("Q[d]")
    assert parse_prime("gen=[d]", Qd).short_str() == "(d)"


def test_ring_quotients_and_gcd():
    Zx = parse_ring("Z[x]")
    ring2, imap = ring_quotient(Zx, Zx.from_int(2))
    assert repr(ring2) == "GF(2)[x]"
    assert imap(Zx.parse("3*x + 2")) == ring2.parse("x")
    ringz, imap = ring_quotient(Zx, Zx.parse("x - 3"))
    assert imap(Zx.parse("x^2")) == ringz.from_int(9)
    g = ring_gcd(Zx.parse("2*x^2 - 2"), Zx.parse("4*x + 4"))
    assert str(g) == "2*x + 2"
    Qxy = parse_ring("Q[x,y]")
    rq, imap = ring_quotient(Qxy, Qxy.parse("y - x^2"))
    assert imap(Qxy.parse("x*y")) == rq.parse("x^3")


# (ring, generator, tag, residue field, variable images) or (ring, generator,
# exception): every shape of a principal prime the engine checks
PRIME_SHAPES = [
    ("Z", "5", "MaximalPoint", "GF(5)", ()),
    ("Z[d]", "3", "PrincipalIrreducible", "GF(3)(d)", ("d",)),
    ("Z[d]", "d + 2", "PrincipalIrreducible", "Q", ("-2",)),
    ("Z[d]", "2*d - 1", "PrincipalIrreducible", "Q", ("1/2",)),
    ("Z[d]", "d^2 + 1", UnsupportedResidueField),
    ("Z[d]", "2*d + 2", NotPrime),
    ("Q[d]", "d - 1/2", "MaximalPoint", "Q", ("1/2",)),
    ("Q[d]", "d^2 - 2", UnsupportedResidueField),
    ("GF(3)[d]", "d + 1", "MaximalPoint", "GF(3)", ("2",)),
    ("GF(3)[d]", "d^2 + 1", "MaximalPoint", "GF(3^2)", ("a",)),
    ("GF(3)[d]", "d^2 - 1", NotPrime),
    ("Q[x,y]", "x - 1", "PrincipalIrreducible", "Q(y)", ("1", "y")),
    ("Q[x,y]", "x - y^2", "PrincipalIrreducible", "Q(y)", ("y^2", "y")),
    ("Q[x,y]", "x*y - 1", "PrincipalIrreducible", "Q(y)", ("1/y", "y")),
    ("Q[x,y]", "x^2 + 1", UnsupportedResidueField),
    ("Q[x,y]", "x^2 + y^2 - 1", UnsupportedResidueField),
    ("GF(3)[x,y]", "y^2 + 1", "PrincipalIrreducible", "GF(3^2)(x)", ("x", "a")),
]


@pytest.mark.parametrize("case", PRIME_SHAPES, ids=lambda c: f"{c[0]}/({c[1]})")
def test_prime_spec_shapes(case):
    ring = parse_ring(case[0])
    g = ring.parse(case[1])
    if len(case) == 3:
        with pytest.raises(case[2]):
            prime_spec(ring, [g])
        return
    spec = prime_spec(ring, [g])
    F = spec.residue_field
    assert (spec.tag, repr(F), tuple(F.to_str(v) for v in spec.var_images)) == case[2:]


# (ring, generator, quotient ring, images of the variables) or (ring,
# generator, exception, message)
QUOTIENT_SHAPES = [
    ("Z[d]", "3", "GF(3)[d]", ("d",)),
    ("Z[d]", "d + 2", "Z", ("-2",)),
    ("Z[d]", "2*d - 1", UnsupportedRestriction, "Z[d]/(2*d - 1) is not a polynomial ring"),
    ("Z[d]", "d^2 + 1", UnsupportedRestriction, "Z[d]/(d^2 + 1) is an order in a number field"),
    ("Q[d]", "d - 1/2", "Q", ("1/2",)),
    ("Q[x,y]", "x - y^2", "Q[y]", ("y^2", "y")),
    ("Q[x,y]", "x*y - 1", UnsupportedRestriction, "Q[x,y]/(x*y - 1) is not a supported ring"),
]


@pytest.mark.parametrize("case", QUOTIENT_SHAPES, ids=lambda c: f"{c[0]}/({c[1]})")
def test_ring_quotient_shapes(case):
    ring = parse_ring(case[0])
    g = ring.parse(case[1])
    if isinstance(case[2], type):
        with pytest.raises(case[2], match=re.escape(case[3])):
            ring_quotient(ring, g)
        return
    qring, qmap = ring_quotient(ring, g)
    assert (repr(qring), tuple(str(qmap(ring.var(v))) for v in ring.varnames)) == case[2:]


def test_poly_parse_format_roundtrip():
    rng = random.Random(9)
    for ring_str in RINGS:
        ring = parse_ring(ring_str)
        for _ in range(60):
            e = random_element(ring, rng, size=4)
            assert ring.parse(str(e)) == e


def test_canonical_forms_are_bit_identical():
    Qxy = parse_ring("Q[x,y]")
    a = Qxy.parse("x*y + y*x")  # same monomial twice
    b = Qxy.parse("2*x*y")
    assert a.data == b.data
    assert hash(a) == hash(b)


# --- merge kernels and the constant-denominator path --------------------------

KERNEL_DOMAINS = [IntegerOps(), Rationals(), GFPrime(5), GFExt(2, 2, (1, 1, 1))]


def _kernel_coeff(dom, rng):
    if isinstance(dom, GFExt):
        return tuple(rng.randrange(dom.p) for _ in range(dom.e))
    return dom.from_int(rng.randint(-4, 4))


def _kernel_poly(dom, nv, rng, size=5):
    """A canonical polynomial from random terms (often with repeats and zeros)."""
    return P.pnorm(dom, [(tuple(rng.randrange(0, 4) for _ in range(nv)), _kernel_coeff(dom, rng))
                         for _ in range(rng.randrange(0, size + 1))])


def _is_canonical(dom, p):
    return isinstance(p, tuple) and p == P.pnorm(dom, list(p)) and \
        not any(dom.is_zero(c) for _, c in p)


@pytest.mark.parametrize("dom", KERNEL_DOMAINS, ids=lambda d: type(d).__name__)
@pytest.mark.parametrize("nv", [1, 2])
def test_merge_kernels_match_pnorm(dom, nv):
    rng = random.Random(31 + nv)
    for _ in range(300):
        a = _kernel_poly(dom, nv, rng)
        kind = rng.randrange(4)
        if kind == 0:
            b = P.pneg(dom, a)                       # cancels to zero
        elif kind == 1:                              # cancels in part
            b = P.pnorm(dom, list(P.pneg(dom, a)) + list(_kernel_poly(dom, nv, rng, 2)))
        elif kind == 2:
            b = P.PZERO
        else:
            b = _kernel_poly(dom, nv, rng)
        for x, y in ((a, b), (b, a)):
            s, d = P.padd(dom, x, y), P.psub(dom, x, y)
            assert s == P.pnorm(dom, list(x) + list(y))
            assert d == P.pnorm(dom, list(x) + list(P.pneg(dom, y)))
            assert _is_canonical(dom, s) and _is_canonical(dom, d)
        assert P.padd(dom, a, P.pneg(dom, a)) == P.PZERO
        assert P.psub(dom, a, a) == P.PZERO
        c = _kernel_coeff(dom, rng)
        scaled = P.pscale(dom, a, c)
        assert _is_canonical(dom, scaled)
        assert scaled == P.pnorm(dom, [(e, dom.mul(x, c)) for e, x in a])
    assert P.padd(dom, P.PZERO, P.PZERO) == P.PZERO


def _ref_dense(dom, op, a, b):
    """a op b by the schoolbook loop: a zero-filled accumulator, then trim."""
    if op == "mul":
        out = [dom.zero] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = dom.add(out[i + j], dom.mul(x, y))
    else:
        n = max(len(a), len(b))
        pad = lambda p: list(p) + [dom.zero] * (n - len(p))  # noqa: E731
        f = dom.add if op == "add" else dom.sub
        out = [f(x, y) for x, y in zip(pad(a), pad(b))]
    while out and dom.is_zero(out[-1]):
        out.pop()
    return tuple(out)


@pytest.mark.parametrize("dom", [Rationals(), GFPrime(2), GFExt(2, 2, (1, 1, 1))], ids=repr)
def test_dense_kernels_match_reference_loop(dom):
    """uadd, usub and umul on operands of every length from 0 to 4, with
    constants on either side and sums whose lead cancels."""
    rng = random.Random(5)

    def rand_dense(n):
        out = [_kernel_coeff(dom, rng) for _ in range(n)]
        while n and dom.is_zero(out[-1]):
            out[-1] = _kernel_coeff(dom, rng)
        return tuple(out)

    ops = {"add": P.uadd, "sub": P.usub, "mul": P.umul}
    for _ in range(40):
        for la in range(5):
            for lb in range(5):
                a, b = rand_dense(la), rand_dense(lb)
                # the lead of a (sub cancels it) and its negative (add does)
                same = tuple(_kernel_coeff(dom, rng) for _ in a[1:]) + a[-1:]
                for x, y in ((a, b), (a, same), (a, P.uneg(dom, same))):
                    for op, fn in ops.items():
                        r = fn(dom, x, y)
                        assert r == _ref_dense(dom, op, x, y) and type(r) is tuple, (op, x, y)
        for a in (rand_dense(1), rand_dense(3)):
            assert P.uadd(dom, a, P.uneg(dom, a)) == P.usub(dom, a, a) == ()


FUNCTION_FIELDS = [
    FuncField(Rationals(), ("d",)),
    FuncField(GFPrime(5), ("d",)),
    FuncField(GFExt(2, 2, (1, 1, 1)), ("d",)),
    FuncField(Rationals(), ("x", "y")),
]


@pytest.mark.parametrize("F", FUNCTION_FIELDS, ids=lambda f: repr(f))
def test_make_with_constant_denominator_matches_gcd_path(F):
    base, nv = F.base, F.nv
    rng = random.Random(13)
    # multiplying through by a nonconstant q sends make down its gcd path
    q = P.padd(base, P.pvar(base, nv, nv - 1), P.pone(base, nv))
    consts = [base.one, base.from_int(3), base.from_int(-2)]
    if isinstance(base, GFExt):
        consts.append(base.gen())
    for c in consts:
        if base.is_zero(c):  # -2 in characteristic 2
            continue
        den = P.pconst(base, nv, c)
        assert F.make(P.PZERO, den) == F.zero
        for _ in range(40):
            num = ring_like_poly(F, rng)
            got = F.make(num, den)
            assert got == F.make(P.pmul(base, num, q), P.pmul(base, den, q))
            if num:
                assert got[1] == F.one[1]
                assert got == F.div(F.from_poly(num), F.from_poly(den))
