"""Field scalars: integral rationals are ints, no float reaches a field, and
dense one-variable k(d) scalars agree with sparse reference arithmetic.

`/` on two ints gives a float, which would silently turn exact arithmetic
inexact; these tests pin the places where a Q scalar is divided and scan
every registry fiber for stray types."""

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


# --- one-variable function fields against sparse reference arithmetic ----------

def _ref_canon(base, num, den):
    """Canonical sparse (num, den): gcd 1 by pgcd_field, monic denominator."""
    if not num:
        return (P.PZERO, P.pone(base, 1))
    g = P.pgcd_field(base, 1, num, den)
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


def _rand_poly(base, rng, nonzero=False):
    while True:
        items = [((e,), base.from_int(rng.randint(-3, 3))) for e in range(rng.randrange(4))]
        if isinstance(base, GFExt) and rng.random() < 0.5:
            items.append(((rng.randrange(3),), base.gen()))
        p = P.pnorm(base, items)
        if p or not nonzero:
            return p


@pytest.mark.parametrize("F", [FuncField(Rationals(), ("d",)), FuncField(GFPrime(5), ("d",)),
                               FuncField(GFExt(2, 2, (1, 1, 1)), ("d",))],
                         ids=repr)
def test_dense_scalars_match_sparse_reference(F):
    base, mul = F.base, (lambda a, b: P.pmul(F.base, a, b))
    rng = random.Random(11)
    pairs = []
    for _ in range(60):
        num = _rand_poly(base, rng)
        # a third of the values are polynomials: the constant-denominator path
        den = P.pone(base, 1) if rng.random() < 0.34 else _rand_poly(base, rng, nonzero=True)
        ref = _ref_canon(base, num, den)
        a = F.make(num, den)
        assert (F.numerator(a), F.denominator(a)) == ref
        pairs.append((a, ref))
    for (a, (na, da)), (b, (nb, db)) in zip(pairs, pairs[1:] + pairs[:1]):
        got = {"add": F.add(a, b), "mul": F.mul(a, b)}
        want = {"add": _ref_canon(base, P.padd(base, mul(na, db), mul(nb, da)), mul(da, db)),
                "mul": _ref_canon(base, mul(na, nb), mul(da, db))}
        if nb:
            got["div"] = F.div(a, b)
            want["div"] = _ref_canon(base, mul(na, db), mul(da, nb))
            got["inv"] = F.inv(b)
            want["inv"] = _ref_canon(base, db, nb)
        for op, r in got.items():
            num, den = want[op]
            assert (F.numerator(r), F.denominator(r)) == (num, den), op
            bk = base.sort_key
            assert F.sort_key(r) == (P.pkey(bk, num), P.pkey(bk, den)), op
            assert F.to_str(r) == _ref_str(F, num, den), op
