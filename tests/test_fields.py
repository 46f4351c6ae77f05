"""Field scalars: integral rationals are ints, no float reaches a field, and
dense one-variable k(d) scalars agree with sparse reference arithmetic.

`/` on two ints gives a float, which would silently turn exact arithmetic
inexact; these tests pin the places where a Q scalar is divided and scan
every registry fiber for stray types."""

import itertools
import random
from fractions import Fraction

import pytest

from decompgen import polyops as P
from decompgen.algebra import specialize
from decompgen.corpus import REGISTRY
from decompgen.fields import FuncField, GFExt, GFPrime, Rationals
from decompgen.primes import prime_spec
from decompgen.rings import parse_ring

QQ = Rationals()


def _is_normal_rational(x):
    """An int, or a Fraction that is not integral; never a float."""
    if type(x) is int:
        return True
    return type(x) is Fraction and x.denominator != 1


def test_division_is_exact_and_normalized():
    two = QQ.div(4, 2)
    assert two == 2 and type(two) is int
    half = QQ.inv(2)
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert type(QQ.mul(Fraction(1, 2), 2)) is int
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(QQ.sub(Fraction(3, 2), Fraction(1, 2))) is int
    assert type(QQ.parse_coeff(6, 3)) is int
    assert type(QQ.from_fraction(Fraction(5, 1))) is int
    assert QQ.zero == 0 and type(QQ.zero) is int and QQ.one == 1 and type(QQ.one) is int
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(AttributeError):
        QQ.from_fraction(0.5)


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_gf_prime_scalars_stay_reduced(p):
    # is_zero and inv compare with 0, so every scalar an operation hands back
    # must be an int in [0, p)
    F = GFPrime(p)
    rng = random.Random(p)

    def reduced(x):
        return type(x) is int and 0 <= x < p

    ints = [-3 * p - 1, -p, -1, p, p + 1, 5 * p + 2, 10**20 + 3]
    assert all(reduced(F.from_int(n)) for n in ints)
    for _ in range(200):
        a, b = rng.randrange(p), rng.randrange(p)
        results = (F.add(a, b), F.sub(a, b), F.mul(a, b), F.neg(a), F.add(a, F.neg(a)),
                   F.sub(b, b))
        assert all(reduced(x) for x in results)
        # the kernels test for zero by comparing with F.zero
        assert all(F.is_zero(x) == (x == F.zero) for x in results)
        if b:
            assert reduced(F.inv(b)) and reduced(F.div(a, b))
        num, den = rng.randint(-10 * p, 10 * p), rng.randint(1, 10 * p)
        if den % p:
            assert reduced(F.from_fraction(Fraction(num, den)))
            assert reduced(F.parse_coeff(num, den))


@pytest.mark.parametrize("F", [QQ, GFExt(2, 2, (1, 1, 1)), GFExt(3, 2, (1, 0, 1))], ids=repr)
def test_zero_is_canonical(F):
    """A result is zero exactly when it equals F.zero, which the linear
    algebra kernels compare with instead of calling is_zero: sums and
    differences that cancel, and products, included."""
    rng = random.Random(5)
    if isinstance(F, GFExt):
        values = [F.add(F.mul(F.from_int(rng.randrange(F.p)), F.gen()),
                        F.from_int(rng.randrange(F.p))) for _ in range(20)]
    else:
        values = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(20)]
        values = [F.from_fraction(q) for q in values]
    for a, b in zip(values, values[1:] + values[:1]):
        results = [F.add(a, b), F.sub(a, b), F.mul(a, b), F.neg(a), F.add(a, F.neg(a)),
                   F.sub(a, a), F.add(F.mul(a, b), F.neg(F.mul(b, a)))]
        if not F.is_zero(b):
            results += [F.div(a, b), F.sub(F.div(a, b), F.mul(a, F.inv(b)))]
        assert all(F.is_zero(r) == (r == F.zero) for r in results), (a, b)
        assert any(F.is_zero(r) for r in results)


def _reference_product(F, a, b):
    """a * b in GF(p^e) as the dense product over GF(p) reduced by `umod`."""
    gf = GFPrime(F.p)
    rem = P.umod(gf, P.umul(gf, P.utrim(gf, a), P.utrim(gf, b)), F.modulus)
    return tuple(rem) + (0,) * (F.e - len(rem))


@pytest.mark.parametrize("F, sample", [(GFExt(2, 2, (1, 1, 1)), None),
                                       (GFExt(2, 3, (1, 1, 0, 1)), None),
                                       (GFExt(3, 2, (1, 0, 1)), None),
                                       (GFExt(31, 2, (1, 0, 1)), 40)], ids=repr)
def test_extension_field_arithmetic_matches_reference(F, sample):
    """Every pair of elements of GF(4), GF(8) and GF(9), and of a seeded
    sample of GF(31^2): a product is the reference product, a quotient times
    its divisor is the dividend and an element times its inverse is one, and
    every result is canonical (e ints in [0, p)).  Zero and one are built
    once per field."""
    elements = list(itertools.product(range(F.p), repeat=F.e))
    if sample:
        elements = random.Random(31).sample(elements, sample)
    assert F.zero is F.zero and F.one is F.one

    def canonical(x):
        return type(x) is tuple and len(x) == F.e and all(
            type(c) is int and 0 <= c < F.p for c in x)

    for a in elements:
        for b in elements:
            r = F.mul(a, b)
            assert canonical(r) and r == _reference_product(F, a, b), (a, b)
            if b != F.zero:
                q = F.div(a, b)
                assert canonical(q) and _reference_product(F, q, b) == a, (a, b)
        if a != F.zero:
            inv = F.inv(a)
            assert canonical(inv) and _reference_product(F, a, inv) == F.one, a


@pytest.mark.parametrize("ring_text", ["Q[d]", "Z[d]"])
def test_linear_prime_roots_are_exact(ring_text):
    R = parse_ring(ring_text)
    (half,) = prime_spec(R, [R.parse("2*d - 1")]).var_images
    assert half == Fraction(1, 2) and type(half) is Fraction
    (three,) = prime_spec(R, [R.parse("d - 3")]).var_images
    assert three == 3 and type(three) is int


def test_root_on_a_line_of_two_variables_is_exact():
    R = parse_ring("Q[x,y]")
    images = prime_spec(R, [R.parse("2*x - 1")]).var_images
    F = FuncField(Rationals(), ("y",))
    assert images[0] == F.from_fraction(Fraction(1, 2))


def _stray_scalars(field, values):
    """The values that are floats, or integral Fractions over Q; over a
    function field, the same for the coefficients of numerators and
    denominators."""
    if isinstance(field, FuncField):
        coeffs = [c for a in values for poly in (field.numerator(a), field.denominator(a))
                  for _, c in poly]
        return _stray_scalars(field.base, coeffs)
    if isinstance(field, Rationals):
        return [c for c in values if not _is_normal_rational(c)]
    return [c for c in values if isinstance(c, float)]


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_no_float_or_integral_fraction_in_registry_fibers(corpus, registry_points, key):
    A = corpus[key]
    for p in registry_points(key, A):
        F = specialize(A, p)
        values = [c for plane in F.sc for row in plane for c in row] + list(F.unit)
        assert _stray_scalars(F.field, values) == [], (key, p.short_str())


# --- function fields against sparse reference arithmetic ---------------------

def _ref_canon(base, nv, num, den):
    """Canonical sparse (num, den): gcd 1 by pgcd_field, denominator with
    leading coefficient one."""
    if not num:
        return (P.PZERO, P.pone(base, nv))
    g = P.pgcd_field(base, nv, num, den)
    num, den = P.pexact_div(base, num, g), P.pexact_div(base, den, g)
    inv = base.inv(den[0][1])
    return (P.pscale(base, num, inv), P.pscale(base, den, inv))


def _ref_str(F, num, den):
    """The text of a sparse (num, den) pair as FuncField.to_str wrote it when
    scalars were sparse."""
    ns = P.pformat(num, F.varnames, F.base.to_str)
    if P.pis_const(den):
        return ns
    ds = P.pformat(den, F.varnames, F.base.to_str)
    if len(num) > 1:
        ns = "(" + ns + ")"
    if len(den) > 1:
        ds = "(" + ds + ")"
    return ns + "/" + ds


def _rand_poly(base, nv, rng, nonzero=False):
    while True:
        items = [(tuple(rng.randrange(3) for _ in range(nv)), base.from_int(rng.randint(-3, 3)))
                 for _ in range(rng.randrange(4))]
        if isinstance(base, GFExt) and rng.random() < 0.5:
            items.append(((rng.randrange(3),) * nv, base.gen()))
        p = P.pnorm(base, items)
        if p or not nonzero:
            return p


def _reference_results(F, a, b):
    """Every arithmetic op of F on scalars a and b (and neg, inv on b) next
    to its sparse reference (num, den)."""
    base, nv = F.base, F.nv
    mul = lambda x, y: P.pmul(base, x, y)  # noqa: E731
    (na, da), (nb, db) = (F.numerator(a), F.denominator(a)), (F.numerator(b), F.denominator(b))
    got = {"add": F.add(a, b), "sub": F.sub(a, b), "mul": F.mul(a, b), "neg": F.neg(b)}
    want = {"add": _ref_canon(base, nv, P.padd(base, mul(na, db), mul(nb, da)), mul(da, db)),
            "sub": _ref_canon(base, nv, P.psub(base, mul(na, db), mul(nb, da)), mul(da, db)),
            "mul": _ref_canon(base, nv, mul(na, nb), mul(da, db)),
            "neg": _ref_canon(base, nv, P.pneg(base, nb), db)}
    if nb:
        got["div"] = F.div(a, b)
        want["div"] = _ref_canon(base, nv, mul(na, db), mul(da, nb))
        got["inv"] = F.inv(b)
        want["inv"] = _ref_canon(base, nv, db, nb)
    return [(op, got[op], want[op]) for op in got]


def _check_against_reference(F, seed):
    """Random scalars, a third of them polynomials (the constant-denominator
    path), together with zero and nonzero constants, which every op meets
    on both sides.  Each result equals its reference and is the very tuple
    `make` builds: memo keys hash raw scalars."""
    base, nv = F.base, F.nv
    rng = random.Random(seed)
    one = P.pone(base, nv)
    consts = [c for c in (base.one, base.from_int(2), base.from_int(-1)) if not base.is_zero(c)]
    special = [F.zero] + [F.make(P.pconst(base, nv, c), one) for c in consts]
    values = list(special)
    for _ in range(60):
        num = _rand_poly(base, nv, rng)
        den = one if rng.random() < 0.34 else _rand_poly(base, nv, rng, nonzero=True)
        a = F.make(num, den)
        assert (F.numerator(a), F.denominator(a)) == _ref_canon(base, nv, num, den)
        values.append(a)
    # a polynomial and its negative: their sum vanishes
    poly = F.make(_rand_poly(base, nv, rng, nonzero=True), one)
    values += [poly, F.neg(poly)]
    pairs = list(zip(values, values[1:] + values[:1]))
    pairs += [p for s in special for v in values[::3] for p in ((s, v), (v, s))]
    pairs += [(v, v) for v in values[::5]]
    bk = base.sort_key
    for a, b in pairs:
        for op, r, (num, den) in _reference_results(F, a, b):
            assert F.is_zero(r) == (r == F.zero), op  # zero is canonical
            assert (F.numerator(r), F.denominator(r)) == (num, den), op
            made = F.make(num, den)
            assert r == made and repr(r) == repr(made), op
            assert F.sort_key(r) == (P.pkey(bk, num), P.pkey(bk, den)), op
            assert F.to_str(r) == _ref_str(F, num, den), op


@pytest.mark.parametrize("F", [FuncField(Rationals(), ("d",)), FuncField(GFPrime(5), ("d",)),
                               FuncField(GFExt(2, 2, (1, 1, 1)), ("d",)),
                               FuncField(GFPrime(2), ("d",)), FuncField(GFPrime(3), ("d",))],
                         ids=repr)
def test_dense_scalars_match_sparse_reference(F):
    _check_against_reference(F, 11)


@pytest.mark.parametrize("F", [FuncField(Rationals(), ("x", "y")),
                               FuncField(GFPrime(5), ("x", "y"))], ids=repr)
def test_two_variable_scalars_match_sparse_reference(F):
    """The same ops on canonical sparse scalars, where the zero polynomial
    is () and a constant denominator is the one polynomial."""
    _check_against_reference(F, 12)
