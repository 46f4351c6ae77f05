"""Fingerprints: values, additivity, injectivity, reduction."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from decompgen import polyops as P
from decompgen.algebra import specialize
from decompgen.errors import NotReducible
from decompgen.fields import GFExt
from decompgen.fingerprints import Fingerprint, fingerprint_of_simple, reduce_fingerprint
from decompgen.modules import AlgebraModule, chop, regular_module
from decompgen.linalg import Matrix
from decompgen.primes import prime_spec
from decompgen.rings import parse_ring

Z = parse_ring("Z")
Qd = parse_ring("Q[d]")


def entrywise_product(F, a, b):
    """The fingerprint polys of a direct sum, from those of its summands."""
    return tuple(P.umul(F, f, g) for f, g in zip(a, b))


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
    reg = regular_module(G).char_polys()
    assert reg[0] == (Fraction(1), Fraction(-2), Fraction(1))  # (X-1)^2
    assert reg[1] == (Fraction(-1), Fraction(0), Fraction(1))  # X^2-1


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
    assert direct.char_polys() == entrywise_product(FF, fa.polys, fb.polys)


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
    polys = m.char_polys()
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
    embedded = tuple(tuple(F4.from_int(c) for c in poly) for poly in polys)
    assert lifted.char_polys() == embedded


def REGISTRY_FIBER_F2C2():
    from decompgen.corpus import REGISTRY

    return specialize(REGISTRY["ZC2"].algebra(), prime_spec(Z, [Z.from_int(2)]))


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
            acc = fps[combo[0]].polys
            for i in combo[1:]:
                acc = entrywise_product(F.field, acc, fps[i].polys)
            key = tuple(P.ukey(F.field, f) for f in acc)
            assert multisets.setdefault(key, combo) == combo, (
                f"fingerprint collision between {multisets[key]} and {combo}")
