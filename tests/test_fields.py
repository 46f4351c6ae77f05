"""Rational scalars: integral values are ints, and no float reaches a field.

`/` on two ints gives a float, which would silently turn exact arithmetic
inexact; these tests pin the places where a Q scalar is divided and scan
every registry fiber for stray types."""

from fractions import Fraction

import pytest

from decompgen.algebra import specialize
from decompgen.corpus import REGISTRY
from decompgen.fields import FuncField, Rationals
from decompgen.primes import generic_point, parse_prime, prime_spec
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
        coeffs = [c for num, den in values for poly in (num, den) for _, c in poly]
        return _stray_scalars(field.base, coeffs)
    if isinstance(field, Rationals):
        return [c for c in values if not _is_normal_rational(c)]
    return [c for c in values if isinstance(c, float)]


def _registry_points(key, A):
    """The generic point and every prime the registry names for A."""
    facts = REGISTRY[key].facts
    yield generic_point(A.ring)
    for text in facts.get("excluded", []):
        yield prime_spec(A.ring, [A.ring.parse(text)])
    for kind in ("decmat", "trivial"):
        for text in facts.get(kind, {}):
            yield parse_prime(text, A.ring)


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_no_float_or_integral_fraction_in_registry_fibers(corpus, key):
    A = corpus[key]
    for p in _registry_points(key, A):
        F = specialize(A, p)
        values = [c for plane in F.sc for row in plane for c in row] + list(F.unit)
        assert _stray_scalars(F.field, values) == [], (key, p.short_str())
