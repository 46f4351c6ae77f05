"""Characteristic-polynomial fingerprints of modules.

The fingerprint of a module is the tuple of characteristic polynomials of
the distinguished basis elements acting on it.  It is additive-to-
multiplicative (direct sums multiply entrywise), a complete invariant of a
module class, and for the generic fiber its coefficients land in the base
ring whenever that ring is normal -- which all supported rings are.  That
last fact is checked, not assumed: a coefficient outside the localization
at a prime aborts its reduction there.

Reducing a fingerprint coefficientwise along a prime is how decomposition
matrices are computed without ever constructing valuation rings; the fiber
simples read off the reduced generic simples
(`decomposition.reduced_generic_simples`) likewise reduce elements of the
localization R_p and build none.  The polynomials of one fingerprint share
most of their coefficients, so each distinct coefficient is reduced once
per fingerprint.
"""

from dataclasses import dataclass
from itertools import chain

from .primes import reduce_scalar


@dataclass(frozen=True)
class Fingerprint:
    field: object
    polys: tuple  # one dense monic polynomial per algebra basis element

    def to_strings(self):
        return [[self.field.to_str(c) for c in p] for p in self.polys]


def fingerprint_of_simple(simple):
    return Fingerprint(simple.module.fiber.field, simple.fingerprint_polys)


def reduce_fingerprint(fp, spec):
    """Coefficientwise reduction into the residue field; degrees preserved.

    Raises NotReducible at the first coefficient outside the localization,
    which cannot happen for fingerprints of generic simples over the
    supported (normal) rings.
    """
    images = {c: reduce_scalar(c, spec) for c in dict.fromkeys(chain.from_iterable(fp.polys))}
    return Fingerprint(spec.residue_field,
                       tuple(tuple(images[c] for c in poly) for poly in fp.polys))
