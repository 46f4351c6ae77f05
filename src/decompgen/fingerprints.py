"""Characteristic-polynomial fingerprints of modules.

The fingerprint of a module is the tuple of characteristic polynomials of
the distinguished basis elements acting on it.  It is additive-to-
multiplicative (direct sums multiply entrywise), a complete invariant of a
module class, and for the generic fiber its coefficients land in the base
ring whenever that ring is normal -- which all supported rings are.  That
last fact is validated, not assumed: a coefficient outside the ring aborts.

Reducing a fingerprint coefficientwise along a prime is how decomposition
matrices are computed without ever constructing valuation rings.
"""

from dataclasses import dataclass

from . import polyops as P
from .errors import AttractorEscapesBase
from .primes import denominator_ideal, reduce_scalar
from .rings import normalize_generator


@dataclass(frozen=True)
class Fingerprint:
    field: object
    polys: tuple  # one dense monic polynomial per algebra basis element

    @property
    def module_dim(self):
        return P.udeg(self.polys[0]) if self.polys else 0

    def sort_key(self):
        return tuple(P.ukey(self.field, p) for p in self.polys)

    def entrywise_product(self, other):
        F = self.field
        return Fingerprint(F, tuple(P.umul(F, a, b)
                                    for a, b in zip(self.polys, other.polys)))

    def to_strings(self):
        return [[self.field.to_str(c) for c in p] for p in self.polys]


def fingerprint(module):
    return Fingerprint(module.fiber.field, module.char_polys())


def fingerprint_of_simple(simple):
    return Fingerprint(simple.module.fiber.field, simple.fingerprint_polys)


@dataclass(frozen=True)
class AttractorGenerators:
    ring: object
    scalars: tuple    # fingerprint coefficients as fraction-field scalars
    elements: tuple   # the same coefficients as ring elements


def attractor_generators(A, seed=1):
    """All fingerprint coefficients of the generic simples, validated to lie
    in the base ring."""
    from .modules import regular_factors

    fiber = A.generic_fiber()
    factors = regular_factors(fiber, seed)
    ring = A.ring
    K = fiber.field
    seen = {}
    for s, _ in factors:
        for poly in s.fingerprint_polys:
            for c in poly[:-1]:  # the leading 1 carries no information
                key = K.sort_key(c)
                if key not in seen:
                    seen[key] = c
    scalars = tuple(seen[k] for k in sorted(seen))
    elements = []
    for c in scalars:
        e = ring.from_field_scalar(c, K)
        if e is None:
            raise AttractorEscapesBase(
                f"fingerprint coefficient {K.to_str(c)} of {A.name} is not in {ring!r}")
        elements.append(e)
    return AttractorGenerators(ring, scalars, tuple(elements))


def reduce_fingerprint(fp, spec):
    """Coefficientwise reduction into the residue field; degrees preserved.

    Raises NotReducible when a coefficient sits outside the localization,
    which cannot happen for fingerprints of generic simples over the
    supported (normal) rings.
    """
    F = spec.residue_field
    out = []
    for poly in fp.polys:
        out.append(tuple(reduce_scalar(c, spec) for c in poly))
    return Fingerprint(F, tuple(out))


def gen_locus(scalars, ring):
    """Generator of the product of the denominator ideals: a prime avoids
    the vanishing locus exactly when all scalars live in its localization."""
    acc = ring.one()
    for a in scalars:
        acc = acc * denominator_ideal(a, ring)
    return normalize_generator(acc)
