"""Fingerprints: values, additivity, attractor integrality, reduction."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from decompgen import polyops as P
from decompgen.algebra import specialize
from decompgen.errors import NotReducible
from decompgen.fields import GFExt
from decompgen.fingerprints import (
    Fingerprint,
    attractor_generators,
    fingerprint,
    fingerprint_of_simple,
    gen_locus,
    reduce_fingerprint,
)
from decompgen.modules import AlgebraModule, chop, regular_module
from decompgen.linalg import Matrix
from decompgen.primes import prime_spec
from decompgen.rings import parse_ring

Z = parse_ring("Z")
Qd = parse_ring("Q[d]")


def test_fingerprint_examples(corpus):
    C2 = corpus["ZC2"]
    F2 = specialize(C2, prime_spec(Z, [Z.from_int(2)]))
    triv = chop(regular_module(F2))[0][0]
    fp = fingerprint_of_simple(triv)
    one = F2.field.one
    assert fp.polys == ((one, one), (one, one))  # (X+1, X+1) over GF(2)
    G = C2.generic_fiber()
    simples = [s for s, _ in chop(regular_module(G))]
    sign = next(s for s in simples
                if s.fingerprint_polys[1] == (Fraction(1), Fraction(1)))
    assert sign.fingerprint_polys == ((Fraction(-1), Fraction(1)), (Fraction(1), Fraction(1)))
    reg = fingerprint(regular_module(G))
    assert reg.polys[0] == (Fraction(1), Fraction(-2), Fraction(1))  # (X-1)^2
    assert reg.polys[1] == (Fraction(-1), Fraction(0), Fraction(1))  # X^2-1


def test_unit_fingerprint_is_power_of_x_minus_one(corpus):
    for key in ("ZS3", "B2_Q", "Mat2_Z"):
        F = corpus[key].generic_fiber()
        m = regular_module(F)
        K = F.field
        unit_act = m.act_element(list(F.unit))
        from decompgen.linalg import char_poly

        chi = char_poly(unit_act)
        expect = (K.one,)
        for _ in range(F.dim):
            expect = P.umul(K, expect, (K.neg(K.one), K.one))
        assert chi == expect


def test_fingerprint_of_direct_sum_is_entrywise_product(corpus):
    S3 = corpus["ZS3"]
    F = specialize(S3, prime_spec(Z, [Z.from_int(5)]))
    simples = [s for s, _ in chop(regular_module(F))]
    a, b = simples[0], simples[-1]
    FF = F.field
    summed = []
    for ma, mb in zip(a.module.action, b.module.action):
        n1, n2 = ma.nrows, mb.nrows
        rows = [[FF.zero] * (n1 + n2) for _ in range(n1 + n2)]
        for i in range(n1):
            for j in range(n1):
                rows[i][j] = ma.rows[i][j]
        for i in range(n2):
            for j in range(n2):
                rows[n1 + i][n1 + j] = mb.rows[i][j]
        summed.append(Matrix(FF, rows))
    direct = AlgebraModule(F, summed)
    fa = fingerprint_of_simple(a)
    fb = fingerprint_of_simple(b)
    assert fingerprint(direct).polys == fa.entrywise_product(fb).polys


def test_attractor_examples(corpus):
    ag = attractor_generators(corpus["ZC2"])
    assert {str(e) for e in ag.elements} <= {"0", "1", "-1"}
    ag = attractor_generators(corpus["Mat2_Z"])
    assert {str(e) for e in ag.elements} <= {"0", "1", "-1"}
    ag = attractor_generators(corpus["B2_Q"])
    assert "-d" in {str(e) for e in ag.elements}  # the constant term of X - d
    # integrality: every coefficient is a ring element, so conversion worked
    assert all(e.ring == corpus["B2_Q"].ring for e in ag.elements)


def test_reduce_fingerprint_examples(corpus):
    K = Z.fraction_field()
    fp = Fingerprint(K, ((Fraction(-1), Fraction(1)), (Fraction(1), Fraction(1))))
    p2 = prime_spec(Z, [Z.from_int(2)])
    red = reduce_fingerprint(fp, p2)
    assert red.polys == ((1, 1), (1, 1))
    # (X - 3/2) at (5): 3 * inverse(2) = 4
    fp = Fingerprint(K, ((Fraction(-3, 2), Fraction(1)),))
    p5 = prime_spec(Z, [Z.from_int(5)])
    assert reduce_fingerprint(fp, p5).polys == (((-4) % 5, 1),)
    with pytest.raises(NotReducible):
        reduce_fingerprint(fp, p2)
    # (X - d) at (d) over Q[d]
    KQ = Qd.fraction_field()
    d = KQ.var_scalar(0)
    fp = Fingerprint(KQ, ((KQ.neg(d), KQ.one),))
    pd = prime_spec(Qd, [Qd.parse("d")])
    red = reduce_fingerprint(fp, pd)
    assert red.polys == ((Fraction(0), Fraction(1)),)


def test_field_extension_compatibility():
    """Fingerprints commute with scalar extension GF(p) into GF(p^e)."""
    C2 = parse_ring("GF(2)[x]")  # only for namespacing; fiber built directly
    group = REGISTRY_FIBER_F2C2()
    m = regular_module(group)
    fp = fingerprint(m)
    F4 = GFExt(2, 2, (1, 1, 1))
    lifted_action = [
        Matrix(F4, [[F4.from_int(c) for c in row] for row in mat.rows])
        for mat in m.action
    ]
    lifted_sc = tuple(
        tuple(tuple(F4.from_int(c) for c in row) for row in plane)
        for plane in group.sc
    )
    from decompgen.algebra import FiniteFreeAlgebra

    lifted_fiber = FiniteFreeAlgebra("F4C2", F4, group.basis_names, lifted_sc,
                                     tuple(F4.from_int(c) for c in group.unit))
    lifted = AlgebraModule(lifted_fiber, lifted_action)
    fp4 = fingerprint(lifted)
    embedded = tuple(tuple(F4.from_int(c) for c in poly) for poly in fp.polys)
    assert fp4.polys == embedded


def REGISTRY_FIBER_F2C2():
    from decompgen.corpus import REGISTRY

    return specialize(REGISTRY["ZC2"].algebra(), prime_spec(Z, [Z.from_int(2)]))


def test_gen_locus_examples():
    assert gen_locus([Fraction(3, 2)], Z) == Z.from_int(2)
    assert gen_locus([Fraction(1, 2), Fraction(1, 3)], Z) == Z.from_int(6)
    K = Qd.fraction_field()
    alpha = K.make(Qd.parse("d").data, Qd.parse("d - 1").data)
    assert gen_locus([alpha], Qd) == Qd.parse("d - 1")


def test_injectivity_distinct_simples_distinct_fingerprints(corpus):
    fibers = []
    for key in ("ZS3", "B2_Q", "TL3_Q", "Mat2_Z"):
        A = corpus[key]
        fibers.append(A.generic_fiber())
    for key, gens in (("ZS3", [2]), ("ZS3", [3]), ("ZC2", [2])):
        fibers.append(specialize(corpus[key], prime_spec(Z, [Z.from_int(g) for g in gens])))
    for fiber in fibers:
        simples = [s for s, _ in chop(regular_module(fiber))]
        fps = [fingerprint_of_simple(s) for s in simples]
        for i in range(len(fps)):
            for j in range(i + 1, len(fps)):
                assert fps[i].polys != fps[j].polys


def test_injectivity_on_small_multisets(corpus):
    """Distinct multisets of simples with equal total dimension <= 6 have
    distinct entrywise-product fingerprints."""
    F = corpus["ZS3"].generic_fiber()
    simples = [s for s, _ in chop(regular_module(F))]
    fps = [fingerprint_of_simple(s) for s in simples]
    dims = [s.dim for s in simples]
    multisets = {}
    for r in range(1, 5):
        for combo in combinations_with_replacement(range(len(simples)), r):
            total = sum(dims[i] for i in combo)
            if total > 6:
                continue
            acc = fps[combo[0]]
            for i in combo[1:]:
                acc = acc.entrywise_product(fps[i])
            key = acc.sort_key()
            assert multisets.setdefault(key, combo) == combo, (
                f"fingerprint collision between {multisets[key]} and {combo}")
