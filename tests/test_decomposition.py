"""Decomposition matrices, triviality criteria and their equivalence."""

import pytest

from decompgen.decomposition import (
    dec_gen_membership,
    decomposition_matrix,
    is_trivial,
    split_data,
)
from decompgen.errors import NoIntegerSolution, NotSplit
from decompgen.primes import parse_prime, prime_spec
from decompgen.rings import parse_ring

Z = parse_ring("Z")
Qd = parse_ring("Q[d]")


def test_decmat_examples(corpus):
    D = decomposition_matrix(corpus["ZC2"], prime_spec(Z, [Z.from_int(2)]))
    assert D.entries == ((1,), (1,))
    assert not is_trivial(D)
    D = decomposition_matrix(corpus["ZS3"], prime_spec(Z, [Z.from_int(3)]))
    assert sorted(D.entries) == [(0, 1), (1, 0), (1, 1)]
    D = decomposition_matrix(corpus["B2_Q"], prime_spec(Qd, [Qd.parse("d")]))
    assert D.entries == ((1, 0), (0, 1), (1, 0))


def test_decmat_checks_regular_module_multiplicities(corpus, monkeypatch):
    """sum_i jh_K(S_i) D[i][j] = jh_p(T_j): doctored fiber multiplicities
    that leave dimensions and fingerprints alone are still caught."""
    import dataclasses

    from decompgen import decomposition

    A, p = corpus["ZS3"], prime_spec(Z, [Z.from_int(3)])
    decomposition_matrix(A, p)
    wf = decomposition.fiber_split_data(A, p)
    doctored = dataclasses.replace(wf, jh_multiplicities=[m + 1 for m in wf.jh_multiplicities])
    monkeypatch.setattr(decomposition, "fiber_split_data", lambda *args, **kwargs: doctored)
    with pytest.raises(NoIntegerSolution, match="regular-module multiplicities"):
        decomposition_matrix(A, p)


def test_is_trivial_shapes():
    from decompgen.decomposition import DecompositionMatrix

    def fake(entries):
        return DecompositionMatrix("x", prime_spec(Z, [Z.from_int(2)]),
                                   tuple(tuple(r) for r in entries),
                                   (1,) * len(entries),
                                   (1,) * len(entries[0]))

    assert is_trivial(fake([[1, 0], [0, 1]]))
    assert not is_trivial(fake([[1], [1]]))
    assert not is_trivial(fake([[1, 0], [0, 1], [1, 1]]))
    assert is_trivial(fake([[0, 1], [1, 0]]))
    assert not is_trivial(fake([[2, 0], [0, 1]]))


def test_triviality_by_radical_examples(corpus):
    assert not dec_gen_membership(corpus["ZC2"], prime_spec(Z, [Z.from_int(2)])).trivial
    assert dec_gen_membership(corpus["ZC2"], prime_spec(Z, [Z.from_int(5)])).trivial
    assert dec_gen_membership(corpus["B2_Q"], prime_spec(Qd, [Qd.parse("d - 1")])).trivial
    assert not dec_gen_membership(corpus["B2_Q"], prime_spec(Qd, [Qd.parse("d")])).trivial


def test_not_split_raises(corpus):
    with pytest.raises(NotSplit):
        dec_gen_membership(corpus["ZC3"], prime_spec(Z, [Z.from_int(5)]))


VERIFICATION_PRIMES = {
    "ZC2": ["p=2", "p=3", "p=5", "p=7", "p=11"],
    "ZS3": ["p=2", "p=3", "p=5", "p=7", "p=13"],
    "B2_Q": ["gen=[d]", "gen=[d - 1]", "gen=[d + 2]", "gen=[d - 5]"],
    "B2_Z": ["p=2", "p=3", "gen=[d]", "gen=[d - 1]", "gen=[2, d]", "gen=[3, d - 1]",
             "gen=[5, d^2 + d + 1]"],
    "TL2_Z": ["p=2", "gen=[d]", "gen=[d - 2]", "gen=[3, d]"],
    "TL3_Q": ["gen=[d]", "gen=[d - 1]", "gen=[d + 1]", "gen=[d - 3]"],
    "Mat2_Z": ["p=2", "p=3", "p=7"],
    "UT2_Z": ["p=2", "p=5"],
    "Dual_Z": ["p=2", "p=3"],
}


def test_triviality_equivalence_on_corpus(corpus):
    """is_trivial(matrix) agrees with the radical-dimension criterion."""
    checked = 0
    for key, prime_strs in VERIFICATION_PRIMES.items():
        A = corpus[key]
        for ps in prime_strs:
            p = parse_prime(ps, A.ring)
            D = decomposition_matrix(A, p)
            assert is_trivial(D) == dec_gen_membership(A, p).trivial, (key, ps)
            checked += 1
    assert checked >= 30


def test_monotonicity_on_corpus(corpus):
    """No split fiber has radical dimension below the generic fiber's."""
    for key, prime_strs in VERIFICATION_PRIMES.items():
        A = corpus[key]
        wk = split_data(A)
        for ps in prime_strs:
            p = parse_prime(ps, A.ring)
            ev = dec_gen_membership(A, p)
            assert ev.fiber_radical_dim >= wk.radical_dim, (key, ps)


def test_no_zero_rows_or_columns(corpus):
    for key, prime_strs in VERIFICATION_PRIMES.items():
        A = corpus[key]
        for ps in prime_strs:
            p = parse_prime(ps, A.ring)
            D = decomposition_matrix(A, p)
            for row in D.entries:
                assert any(c > 0 for c in row)
            for j in range(D.ncols):
                assert any(row[j] > 0 for row in D.entries)


def test_row_dimension_bookkeeping(corpus):
    for key, prime_strs in VERIFICATION_PRIMES.items():
        A = corpus[key]
        for ps in prime_strs:
            p = parse_prime(ps, A.ring)
            D = decomposition_matrix(A, p)
            for i, row in enumerate(D.entries):
                assert D.row_dims[i] == sum(m * d for m, d in zip(row, D.col_dims))


def test_verify_mode_agreement(corpus):
    for key, ps in (("ZC2", "p=2"), ("ZS3", "p=3"), ("B2_Q", "gen=[d]")):
        A = corpus[key]
        ev = dec_gen_membership(A, parse_prime(ps, A.ring), verify=True)
        assert ev.matrix_agrees

