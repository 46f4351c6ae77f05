"""Corpus builders: structural facts and validation."""

import pytest

from decompgen.corpus import (
    REGISTRY,
    brauer_algebra,
    brauer_diagrams,
    compose_diagrams,
    cyclic_table,
    dual_numbers,
    group_algebra,
    matrix_algebra,
    s3_table,
    temperley_lieb,
    tl_diagrams,
    upper_triangular,
    validate_group_table,
)
from decompgen.errors import Inconsistent, NotAGroup
from decompgen.rings import parse_ring
from oracles import conjugate_fiber, direct_sum, klein_table, small_fiber_family

Z = parse_ring("Z")
Zd = parse_ring("Z[d]")
Qd = parse_ring("Q[d]")


def test_registry_dimensions(corpus):
    for key, entry in REGISTRY.items():
        assert corpus[key].dim == entry.facts["dim"], key


def test_group_validation():
    validate_group_table(cyclic_table(4))
    validate_group_table(s3_table())
    validate_group_table(klein_table())
    with pytest.raises(NotAGroup):
        validate_group_table([[0, 1], [1, 1]])  # not a latin square
    with pytest.raises(NotAGroup):
        validate_group_table([[1, 0], [0, 0]])  # no identity element
    # a latin square that is not associative: the smallest is order 5
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAGroup):
        validate_group_table(loop)


def test_diagram_counts():
    assert len(brauer_diagrams(2)) == 3
    assert len(brauer_diagrams(3)) == 15
    assert len(tl_diagrams(2)) == 2
    assert len(tl_diagrams(3)) == 5
    assert len(tl_diagrams(4)) == 14


def test_diagram_composition_loop_counting():
    diagrams = brauer_diagrams(2)
    cup_cap = next(d for d in diagrams
                   if frozenset({("t", 0), ("t", 1)}) in d)
    loops, res = compose_diagrams(cup_cap, cup_cap, 2)
    assert loops == 1 and res == cup_cap
    ident = frozenset(frozenset({("t", i), ("b", i)}) for i in range(2))
    loops, res = compose_diagrams(ident, cup_cap, 2)
    assert loops == 0 and res == cup_cap


def test_b2_table(corpus):
    A = corpus["B2_Z"]
    # basis order: u (cup-cap), 1, s
    u, e, s = 0, 1, 2
    assert str(A.sc[u][u][u]) == "d"
    assert str(A.sc[s][s][e]) == "1"
    assert str(A.sc[s][u][u]) == "1"
    assert str(A.sc[u][s][u]) == "1"


def test_builders_are_validated():
    # builders run the full associativity check; just exercise them
    brauer_algebra(3, Qd)
    temperley_lieb(4, Zd)
    matrix_algebra(3, Z)
    upper_triangular(3, Z)
    direct_sum(dual_numbers(Z), matrix_algebra(2, Z))
    with pytest.raises(Exception):
        brauer_algebra(4, Qd)


def test_group_algebra_structure(corpus):
    S3 = corpus["ZS3"]
    assert S3.trace_vector is not None
    # tau picks out the identity coefficient
    assert [str(t) for t in S3.trace_vector] == ["1", "0", "0", "0", "0", "0"]
    for plane in S3.sc:
        for row in plane:
            for c in row:
                assert str(c) in ("0", "1")


def test_small_fiber_family_validates():
    fibers = small_fiber_family(2, 10, seed=4)
    assert len(fibers) == 10
    for f in fibers:
        assert f.dim <= 4
        f._validate()  # conjugated tables stay associative with units


def test_conjugate_fiber_rejects_a_singular_basis_change():
    F = matrix_algebra(2, Z).generic_fiber()
    Q = F.field
    S = [[Q.from_int(c) for c in row]
         for row in ([1, 0, 0, 1], [0, 1, 0, 0], [2, 1, 0, 2], [0, 0, 1, 0])]
    with pytest.raises(Inconsistent):
        conjugate_fiber(F, S)
    S[2] = [Q.zero, Q.zero, Q.zero, Q.one]
    assert conjugate_fiber(F, S).dim == 4
