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
Zd = parse_ring("Z[d]")


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



def _wedderburn_fields(wd, lattice):
    """Wedderburn data field by field: each simple's dimension, fingerprint
    and image rank, the multiplicities, the JH multiplicities, the End
    dimensions and the radical's rows."""
    return ([(s.dim, s.fingerprint_polys, s.image_rank) for s in wd.simples],
            wd.multiplicities, wd.jh_multiplicities, wd.endo_dims, lattice.rows)


def _routes(A, p, monkeypatch):
    """(the data fiber_split_data gives on a fresh memo, the data of the
    reduced generic simples, the data of the regular module's chop, the
    number of chops fiber_split_data took, whether the generic simples
    reduce at p); the two explicit routes each fill a memo of their own."""
    from decompgen import decomposition, modules
    from decompgen.algebra import specialize

    def route(lattices):
        fiber = specialize(A, p)
        fiber.analyses = {}
        modules.regular_factors(fiber, lattices)
        return _wedderburn_fields(modules.is_split(fiber)[1], modules.radical(fiber))

    modules.regular_factors(A.generic_fiber())
    reduced = decomposition.reduced_generic_simples(A, specialize(A, p))
    chops = []
    chop = modules.chop
    monkeypatch.setattr(modules, "chop", lambda m: chops.append(m) or chop(m))
    fiber = specialize(A, p)
    for name in ("regular_factors", "is_split", "radical"):
        A.analyses.pop((name, fiber.table_key), None)
    wd = decomposition.fiber_split_data(A, p)
    got = _wedderburn_fields(wd, modules.radical(fiber))
    monkeypatch.undo()
    return got, route(lambda: reduced), route(None), len(chops), reduced is not None


def test_reduced_generic_simples_give_the_regular_chops_data(corpus, registry_points, monkeypatch):
    """The fiber's Wedderburn data read off the reduced generic simples
    equals that of the regular module's chop field by field: at every
    registry algebra's registry points and discriminant points, at B3 over
    Z[d]'s (2), (3), (d + 2) and (d - 1), and at the restrictions of B3 to
    GF(2)[d] at (d) and (d + 1) and to GF(3)[d] at (d + 2).  Every one of
    these points reduces, so fiber_split_data takes no chop."""
    from decompgen.algebra import restrict
    from decompgen.corpus import brauer_algebra
    from decompgen.strata import UnresolvedPrime, candidate_discriminant, minimal_primes

    B3 = brauer_algebra(3, Zd)
    cases = []
    for key, A in sorted(corpus.items()):
        try:
            split_data(A)
        except NotSplit:
            continue
        points = list(registry_points(key, A))[1:]
        points += [q for q in minimal_primes(candidate_discriminant(A))
                   if not isinstance(q, UnresolvedPrime)]
        cases += [(A, p) for p in dict.fromkeys(points)]
    cases += [(B3, parse_prime(p, Zd)) for p in ("p=2", "p=3", "gen=[d + 2]", "gen=[d - 1]")]
    for q, points in (("p=2", ("gen=[d]", "gen=[d + 1]")), ("p=3", ("gen=[d + 2]",))):
        R = restrict(B3, parse_prime(q, Zd))
        cases += [(R, parse_prime(p, R.ring)) for p in points]
    for A, p in cases:
        got, reduced, regular, chops, reduces = _routes(A, p, monkeypatch)
        assert reduces and chops == 0, (A.name, p.short_str())
        assert got == reduced == regular, (A.name, p.short_str())
    assert len(cases) == 24


def test_an_entry_outside_the_localization_takes_the_regular_chop(monkeypatch):
    """Mat2 over Z on a basis changed by (I + 6 e_13)(I + 6 e_21) has a
    generic simple with the entry 1/6, so at 2 and 3 fiber_split_data
    chops the regular module, and its data is that chop's."""
    from decompgen.corpus import matrix_algebra
    from oracles import conjugate_algebra

    A = conjugate_algebra(matrix_algebra(2, Z), [(1, 3, Z.from_int(6)), (2, 1, Z.from_int(6))])
    split_data(A)
    for q in (2, 3):
        got, reduced, regular, chops, reduces = _routes(A, prime_spec(Z, [Z.from_int(q)]),
                                                         monkeypatch)
        assert not reduces and chops == 1, q
        assert got == reduced == regular, q


def test_composition_factors_that_miss_the_regular_module_raise(corpus):
    """Counts times dimensions must add up to dim A: the reduced generic
    simples of ZS3 at 3 with one simple left out, or with every count 1,
    raise EngineError (an exception, so python -O keeps the check)."""
    from decompgen.algebra import specialize
    from decompgen.decomposition import reduced_generic_simples
    from decompgen.errors import EngineError
    from decompgen.modules import regular_factors

    A, p = corpus["ZS3"], prime_spec(Z, [Z.from_int(3)])
    split_data(A)
    for doctor in (lambda ms: ms[1:], lambda ms: [(m, 1) for m, _ in ms]):
        fiber = specialize(A, p)
        fiber.analyses = {}
        lattices = doctor(reduced_generic_simples(A, fiber))
        with pytest.raises(EngineError, match="do not fill a regular module of dim 6"):
            regular_factors(fiber, lambda: lattices)
