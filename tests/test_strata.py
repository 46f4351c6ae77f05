"""Discriminants, Schur elements, stratification trees and coverage."""

import random
from fractions import Fraction

import pytest

from decompgen.corpus import REGISTRY
from decompgen.decomposition import dec_gen_membership
from decompgen.errors import NotPrime, NotSemisimpleGeneric, NotSymmetric, UnsupportedError
from decompgen.fields import GFPrime, Rationals
from decompgen.linalg import Matrix, det
from decompgen.primes import prime_spec
from decompgen.rings import parse_ring
from decompgen.strata import (
    UnresolvedPrime,
    _sqrt_scalar,
    candidate_discriminant,
    dec_ex,
    minimal_primes,
    radical_lattice,
    schur_discriminant_crosscheck,
    schur_elements,
    stratify,
    tree_lines,
)
from oracles import contains, gram_route_determinant, locate_stratum, weighted_character_values

Z = parse_ring("Z")
Qd = parse_ring("Q[d]")
Zd = parse_ring("Z[d]")


def test_radical_lattice_examples(corpus):
    lat = radical_lattice(corpus["ZC2"])
    assert lat.rank == 0
    lat = radical_lattice(corpus["B2_Q"])
    assert lat.rank == 0
    A = corpus["UT2_Z"]
    lat = radical_lattice(A)
    assert lat.rank == 1
    assert [[str(c) for c in row] for row in lat.rows] == [["0", "1", "0"]]
    # over Z the saturation and the complement of its one Hermite split are
    # a basis of Z^3
    K = A.generic_fiber().field
    rows = [[A.ring.to_field(c, K) for c in row] for row in lat.rows]
    assert abs(det(Matrix(K, rows + [list(v) for v in lat.complement]))) == 1


def test_candidate_discriminant_values(corpus):
    assert str(candidate_discriminant(corpus["ZC2"])) == "4"
    assert str(candidate_discriminant(corpus["ZS3"])) == "46656"  # 6^6
    g = candidate_discriminant(corpus["Mat2_Z"])
    # a power of two: Mat_2's regular trace Gram degenerates exactly at 2
    assert str(g) == "16"
    assert str(candidate_discriminant(corpus["B2_Q"])) == "d^2"
    assert str(candidate_discriminant(corpus["B2_Z"])) == "4*d^2"
    assert str(candidate_discriminant(corpus["UT2_Z"])) == "1"
    assert str(candidate_discriminant(corpus["Dual_Z"])) == "1"


def test_minimal_primes_examples():
    out = minimal_primes(Z.from_int(108))
    assert [p.short_str() for p in out] == ["(2)", "(3)"]
    g = Qd.parse("d^2") * Qd.parse("d - 1")
    out = minimal_primes(g)
    assert sorted(p.short_str() for p in out) == ["(d - 1)", "(d)"]
    out = minimal_primes(Zd.parse("2*d"))
    assert sorted(p.short_str() for p in out) == ["(2)", "(d)"]


def test_minimal_primes_unresolved_quadratic():
    g = Qd.parse("d^2 - 2")
    out = minimal_primes(g)
    assert len(out) == 1 and isinstance(out[0], UnresolvedPrime)


def test_minimal_primes_bivariate():
    Qxy = parse_ring("Q[x,y]")
    g = Qxy.parse("x^2*y - x^2") * Qxy.parse("y - x^2")
    out = minimal_primes(g)
    labels = sorted(p.short_str() for p in out if not isinstance(p, UnresolvedPrime))
    assert "(x)" in labels and "(y - 1)" in labels and "(x^2 - y)" in labels
    # x^2 - y^2 must split into two lines
    out = minimal_primes(Qxy.parse("x^2 - y^2"))
    labels = sorted(p.short_str() for p in out if not isinstance(p, UnresolvedPrime))
    assert labels == ["(x + y)", "(x - y)"] or labels == ["(x - y)", "(x + y)"]
    # an honest undecidable: irreducible of higher degree is declined
    out = minimal_primes(Qxy.parse("x^3 + y^3 + 1"))
    assert any(isinstance(p, UnresolvedPrime) for p in out)
    # over a large prime field the square test of the leading unit does
    # not search the field: 3 is not a square modulo 2^31 - 1, 4 is
    Fxy = parse_ring(f"GF({2**31 - 1})[x,y]")
    out = minimal_primes(Fxy.parse("y^2 - 3*x^2"))
    assert [p.short_str() for p in out] == ["(x^2 + 715827882*y^2)?"]
    out = minimal_primes(Fxy.parse("y^2 - 4*x^2"))
    assert [p.short_str() for p in out] == ["(x + 1073741823*y)", "(x + 1073741824*y)"]


@pytest.mark.parametrize("ring_text, g, primes", [
    ("GF(2)[x,y]", "x^2", ["(x)"]),
    ("GF(2)[x,y]", "x^3 - x", ["(x + 1)", "(x)"]),
    ("GF(2)[x,y]", "y^2", ["(y)"]),
    ("Q[x,y]", "x^3 - x", ["(x + 1)", "(x - 1)", "(x)"]),
])
def test_minimal_primes_factor_one_variable_parts(ring_text, g, primes):
    # a generator in one variable is its own content in the other, and is
    # factored like any content
    R = parse_ring(ring_text)
    assert [p.short_str() for p in minimal_primes(R.parse(g))] == primes


def _product(ring_text, *factors):
    # the parser takes no parentheses, so products are built by ring arithmetic
    R = parse_ring(ring_text)
    g = R.one()
    for text, m in factors:
        g = g * R.parse(text) ** m
    return g


@pytest.mark.parametrize("g, primes", [
    (_product("Q[x,y]", ("x^2 - y", 2), ("x - y", 1)), ["(x - y)", "(x^2 - y)"]),
    (_product("Q[x,y]", ("x^2 - y^2", 2), ("x*y - 1", 1)), ["(x + y)", "(x - y)", "(x*y - 1)"]),
    (_product("Q[x,y]", ("x^2 - y^3", 1), ("x^2 - y^3 + 1", 2)),
     ["(y^3 - x^2)?", "(y^3 - x^2 - 1)?"]),
    (_product("GF(5)[x,y]", ("x^2 - y", 3), ("x^2 + y^2", 1)),
     ["(x + 2*y)", "(x + 3*y)", "(x^2 + 4*y)"]),
    (_product("GF(7)[x,y]", ("x^3 - y^2", 2), ("x^2 - 4*y^2", 1)),
     ["(x + 2*y)", "(x + 5*y)", "(x^3 + 6*y^2)?"]),
    # a square in characteristic 2 stays whole: no p-th root is taken
    (_product("GF(2)[x,y]", ("x^2 + x*y + y^3", 2), ("x + y^2", 1)),
     ["(y^2 + x)", "(y^6 + x^4 + x^2*y^2)?"]),
], ids=["Q-square", "Q-two-lines", "Q-unresolved", "GF5-cube", "GF7-square", "GF2-square"])
def test_minimal_primes_refine_the_squarefree_split(g, primes):
    # the squarefree split of a two-variable primitive part leaves a
    # squarefree piece and its cofactor, refined into coprime pieces
    assert [p.short_str() for p in minimal_primes(g)] == primes


def test_stratify_at_the_factors_of_a_one_variable_discriminant():
    # Q[x,y][t]/((t - x)(t - x^3)): the discriminant (x^3 - x)^2 lies in x alone
    from decompgen.algebra import load_algebra

    A = load_algebra("""
algebra CUBE
ring Q[x,y]
basis one t
unit 1, 0
mul 0 0 0 1
mul 0 1 1 1
mul 1 0 1 1
mul 1 1 0 -x^4
mul 1 1 1 x + x^3
""")
    dec = dec_ex(A)
    assert [pt.short_str() for pt in dec.points] == [
        "(x + 1) Excluded", "(x - 1) Excluded", "(x) Excluded"]
    node = stratify(A)
    assert [(child.kind, repr(child.ring)) for _, child in node.children] == [
        ("node", "Q[y]")] * 3


def test_unresolved_restriction_names_its_ring():
    # Z[d][t]/(t^2 - (2d - 1)t): Z[d]/(2d - 1) is no polynomial ring
    from decompgen.algebra import load_algebra

    A = load_algebra("""
algebra LIN
ring Z[d]
basis one t
unit 1, 0
mul 0 0 0 1
mul 0 1 1 1
mul 1 0 1 1
mul 1 1 1 2*d - 1
""")
    assert tree_lines(stratify(A))[1:] == [
        "  at (2*d - 1) [Excluded]:",
        "    unresolved LIN: Z[d]/(2*d - 1) is not a polynomial ring"]


def test_candidate_discriminant_needs_a_split_generic_fiber(corpus, monkeypatch):
    """A non-split generic fiber raises NotSplit before the certificate is
    formed; on a split one a zero Gram determinant is a failed internal
    check."""
    from decompgen import strata
    from decompgen.errors import EngineError, NotSplit

    with pytest.raises(NotSplit, match="the generic fiber of ZC3 does not split"):
        candidate_discriminant(corpus["ZC3"])
    monkeypatch.setattr(strata, "det", lambda mat: mat.field.zero)
    with pytest.raises(EngineError, match="degenerate"):
        candidate_discriminant(corpus["ZS3"])


def _first_nonzero_pivot_det(mat):
    """Gaussian elimination that pivots on the first nonzero entry of each
    column: the pivot rule det used before it took the shortest entry."""
    F = mat.field
    rows = [list(r) for r in mat.rows]
    n = len(rows)
    d = F.one
    for j in range(n):
        sel = next((i for i in range(j, n) if not F.is_zero(rows[i][j])), None)
        if sel is None:
            return F.zero
        if sel != j:
            rows[j], rows[sel] = rows[sel], rows[j]
            d = F.neg(d)
        d = F.mul(d, rows[j][j])
        inv = F.inv(rows[j][j])
        for row in rows[j + 1:]:
            f = F.mul(row[j], inv)
            row[j:] = [F.sub(a, F.mul(f, b)) for a, b in zip(row[j:], rows[j][j:])]
    return d


def test_b3_gram_determinants_match_first_nonzero_pivoting(monkeypatch):
    """det of the three large matrices of the simples' entries that B3 over
    Z[d] certifies with (15 x 15 over Q(d), 14 x 14 over GF(2)(d), 11 x 11
    over GF(3)(d)) equals the determinant of first-nonzero pivoting."""
    from decompgen import strata
    from decompgen.algebra import restrict
    from decompgen.corpus import brauer_algebra
    from decompgen.primes import parse_prime

    grams = []
    monkeypatch.setattr(strata, "det", lambda mat: grams.append(mat) or det(mat))
    B3 = brauer_algebra(3, Zd)
    for prime in ("generic", "p=2", "p=3"):
        candidate_discriminant(restrict(B3, parse_prime(prime, Zd)))
    assert [(repr(m.field), m.nrows) for m in grams] == [
        ("Q(d)", 15), ("GF(2)(d)", 14), ("GF(3)(d)", 11)]
    for mat in grams:
        assert det(mat) == _first_nonzero_pivot_det(mat), repr(mat.field)


def test_entry_matrix_determinant_equals_the_gram_route(corpus, registry_points):
    """The certificate's determinant, the sign and weight product times
    det(M)^2 for the matrix M of the simples' entries, is the determinant
    of B = A/J's formed Gram matrix of sum_S w_S chi_S exactly, not up to a
    constant: at every registry algebra's generic point and registry
    points, and at B3 over Z[d]'s nodes generic, (2), (3), (d + 2) and
    (d - 1).  Both routes read the same complement lifts; ZC3 over Q,
    whose generic fiber does not split, is the one point without a
    candidate."""
    from decompgen.algebra import restrict
    from decompgen.corpus import brauer_algebra
    from decompgen.decomposition import split_data
    from decompgen.errors import NotSplit
    from decompgen.primes import parse_prime
    from decompgen.strata import _gram_determinant

    B3 = brauer_algebra(3, Zd)
    cases = [(A, p) for key, A in sorted(corpus.items()) for p in registry_points(key, A)]
    cases += [(B3, parse_prime(p, Zd))
              for p in ("generic", "p=2", "p=3", "gen=[d + 2]", "gen=[d - 1]")]
    compared, not_split = 0, []
    for A, p in cases:
        R = restrict(A, p)
        try:
            split_data(R)
        except NotSplit:
            not_split.append((A.name, p.short_str()))
            continue
        want, lifts = gram_route_determinant(R)
        assert _gram_determinant(R, lifts) == want, (A.name, p.short_str())
        compared += 1
    assert (compared, not_split) == (34, [("ZC3", "(0)")])


def test_candidate_absorbs_the_denominators_of_the_echelon_rows():
    """NIL over Z[y] has the radical line t - y, whose echelon row (1, -1/y)
    and the unit's coordinates on the complement carry the denominator y:
    the candidate is the Gram determinant y^2 times that y."""
    from cli_sweep import NIL
    from decompgen.algebra import load_algebra

    A = load_algebra(NIL.replace("ring Q[y]", "ring Z[y]"))
    assert str(candidate_discriminant(A)) == "y^3"
    assert [pt.short_str() for pt in dec_ex(A).points] == ["(y) RecoveredTrivial"]


# E, E - x, y - d E, F for R[x, y]/(x, y)^2 x R: the radical (x, y) has the
# echelon rows (1, 0, 1/d, 0) and (0, 1, 1/d, 0), which share the
# denominator d, and the maximal minors of their cleared rows have gcd d
SHARED = """algebra Rank2
ring Z[d]
basis e u v f
unit 1, 0, 0, 1
mul 0 0 0 1
mul 0 1 1 1
mul 1 0 1 1
mul 0 2 2 1
mul 2 0 2 1
mul 1 1 0 -1
mul 1 1 1 2
mul 1 2 0 d
mul 1 2 1 -d
mul 1 2 2 1
mul 2 1 0 d
mul 2 1 1 -d
mul 2 1 2 1
mul 2 2 0 -d^2
mul 2 2 2 -2*d
mul 3 3 3 1
"""


@pytest.mark.parametrize("ring, var", [("Z[d]", "d"), ("Q[x,y]", "x")])
def test_rank_two_radical_with_a_shared_denominator(ring, var):
    """The one shape where a gcd of J's maximal minors could add to the
    candidate: it would only raise the exponent of the prime of the shared
    denominator, which the candidate already carries, so the points stay."""
    from decompgen.algebra import load_algebra

    A = load_algebra(SHARED.replace("ring Z[d]", f"ring {ring}").replace("d", var))
    lat = radical_lattice(A)
    assert [[str(c) for c in row] for row in lat.rows] == [
        [var, "0", "1", "0"], ["0", var, "1", "0"]]
    dec = dec_ex(A)
    assert str(dec.candidate) == f"{var}^3"
    assert [pt.short_str() for pt in dec.points] == [f"({var}) RecoveredTrivial"]
    assert [(pt.generic_radical_dim, pt.fiber_radical_dim) for pt in dec.points] == [(2, 2)]


def test_dec_ex_statuses(corpus):
    dec = dec_ex(corpus["ZS3"])
    assert sorted(pt.prime.short_str() for pt in dec.excluded) == ["(2)", "(3)"]
    assert not dec.unknown
    dec = dec_ex(corpus["Mat2_Z"])
    assert not dec.excluded
    assert [pt.prime.short_str() for pt in dec.recovered] == ["(2)"]
    dec = dec_ex(corpus["UT2_Z"])
    assert not dec.points  # unit candidate, empty locus
    dec = dec_ex(corpus["TL4_Q"])
    # quadratic irrational loci are reported, not dropped
    assert dec.excluded or dec.unknown


def test_excluded_points_grow_strictly(corpus):
    for key in ("ZC2", "ZS3", "B2_Q", "B2_Z", "TL2_Z"):
        dec = dec_ex(corpus[key])
        for pt in dec.excluded:
            assert pt.fiber_radical_dim > pt.generic_radical_dim


def test_schur_elements(corpus):
    assert [str(c) for c in schur_elements(corpus["ZS3"])] == ["6", "6", "3"]
    assert [str(c) for c in schur_elements(corpus["ZC2"])] == ["2", "2"]
    assert [str(c) for c in schur_elements(corpus["Mat2_Z"])] == ["1"]
    with pytest.raises(NotSymmetric):
        schur_elements(corpus["B2_Q"])  # no trace vector attached
    with pytest.raises(NotSemisimpleGeneric):
        from decompgen.corpus import dual_numbers

        D = dual_numbers(Z)
        # give the dual numbers a symmetric form: tau(1) = 0, tau(eps) = 1
        from decompgen.algebra import FiniteFreeAlgebra

        A = FiniteFreeAlgebra("DualSym", Z, D.basis_names, D.sc, list(D.unit),
                              [Z.zero(), Z.one()])
        schur_elements(A)


def test_schur_elements_in_characteristic_dividing_the_dimension():
    """Mat2 over GF(2): dim S = 2 is zero, and the Schur element is read off
    the (0, 0) entry of sum_k rho(b_k) E_00 rho(b_k^dual) with no division."""
    from decompgen.corpus import matrix_algebra

    for ring in ("GF(2)", "GF(2)[d]"):
        A = matrix_algebra(2, parse_ring(ring))
        assert [str(c) for c in schur_elements(A)] == ["1"], ring
        assert schur_discriminant_crosscheck(A)["match"], ring


def test_schur_crosscheck(corpus):
    for key in ("ZS3", "ZC2", "Mat2_Z"):
        rep = schur_discriminant_crosscheck(corpus[key])
        assert rep["match"], key


def test_stratify_zc2(corpus):
    tree = stratify(corpus["ZC2"])
    assert tree.kind == "node"
    assert len(tree.children) == 1
    pt, child = tree.children[0]
    assert pt.prime.short_str() == "(2)" and child.kind == "point-leaf"
    # strata: complement of (2), plus the point (2)
    assert "V(2)" in tree.stratum_description()


def test_stratify_b2z_two_levels(monkeypatch):
    # a fresh algebra, so every chop of the run is seen: the fiber at (2)
    # and the generic fiber of B2_Z|(2) share a table and one analysis
    from decompgen import modules

    chop = modules.chop
    chopped = []

    def counting_chop(module, *args, **kwargs):
        chopped.append(repr((module.fiber.field, [m.rows for m in module.action])))
        return chop(module, *args, **kwargs)

    monkeypatch.setattr(modules, "chop", counting_chop)
    tree = stratify(REGISTRY["B2_Z"].algebra())
    assert chopped and len(chopped) == len(set(chopped))
    assert {pt.prime.short_str() for pt, _ in tree.children} == {"(2)", "(d)"}
    for pt, child in tree.children:
        assert child.kind == "node"
        assert len(child.children) == 1
        sub_pt, leaf = child.children[0]
        assert leaf.kind == "point-leaf"
    lines = tree_lines(tree)
    assert any("singleton" in line for line in lines)


def test_stratify_single_stratum(corpus):
    tree = stratify(corpus["Mat2_Z"])
    assert not tree.children
    assert tree.stratum_description() == "all of Spec(R)"
    tree = stratify(corpus["UT2_Z"])
    assert not tree.children


def test_stratify_non_split_generic_is_reported(corpus):
    tree = stratify(corpus["ZC3"])
    assert tree.kind == "unresolved-leaf"
    assert "split" in tree.reason


def _random_primes_z(rng, count):
    out = []
    smalls = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    while len(out) < count:
        out.append(prime_spec(Z, [Z.from_int(rng.choice(smalls))]))
    return out


def _random_primes_zd(rng, count):
    out = []
    while len(out) < count:
        kind = rng.randrange(3)
        try:
            if kind == 0:
                out.append(prime_spec(Zd, [Zd.from_int(rng.choice([2, 3, 5, 7, 11]))]))
            elif kind == 1:
                c = rng.randint(-5, 5)
                out.append(prime_spec(Zd, [Zd.parse(f"d - {c}" if c >= 0 else f"d + {-c}")]))
            else:
                p = rng.choice([2, 3, 5])
                c = rng.randint(0, p - 1)
                out.append(prime_spec(Zd, [Zd.from_int(p), Zd.parse(f"d - {c}")]))
        except (NotPrime, UnsupportedError):
            continue
    return out


def test_cover_every_sampled_prime_lands_in_one_stratum(corpus):
    rng = random.Random(99)
    cases = [
        ("ZC2", _random_primes_z(rng, 15)),
        ("ZS3", _random_primes_z(rng, 15)),
        ("B2_Z", _random_primes_zd(rng, 20)),
    ]
    for key, primes in cases:
        A = corpus[key]
        tree = stratify(A)
        dec = dec_ex(A)
        for pt in dec.excluded:
            primes = primes + [pt.prime]
        for p in primes:
            path = locate_stratum(tree, A, p)
            assert path, (key, p)
            assert path[-1][0] in ("node", "point-leaf", "unresolved-leaf", "leaf")


def test_locate_stratum_descends_through_quotient_chains(corpus):
    A = corpus["B2_Z"]
    tree = stratify(A)
    d = Zd.parse("d")
    assert locate_stratum(tree, A, prime_spec(Zd, [Zd.from_int(2), d])) == (
        ("descend", "(2)"), ("point-leaf", "B2_Z|(2)", "(d)"))
    assert locate_stratum(tree, A, prime_spec(Zd, [Zd.from_int(3), d])) == (
        ("descend", "(d)"), ("node", "B2_Z|(d)"))
    assert locate_stratum(tree, A, prime_spec(Zd, [Zd.parse("d - 1")])) == (
        ("node", "B2_Z"),)


def _skewed_radical_algebra():
    """Over Z[d]: basis e, s, w with s^2 = e and w = (nilpotent) + d*s, so
    the generic radical is the line (0, -d, 1) and the quotient projection
    carries 1/d denominators."""
    from decompgen.algebra import load_algebra

    text = """
algebra Skew
ring Z[d]
basis e s w
unit 1, 0, 0
mul 0 0 0 1
mul 0 1 1 1
mul 0 2 2 1
mul 1 0 1 1
mul 2 0 2 1
mul 1 1 0 1
mul 1 2 0 d
mul 1 2 1 -d
mul 1 2 2 1
mul 2 1 0 d
mul 2 1 1 -d
mul 2 1 2 1
mul 2 2 0 d^2
mul 2 2 1 -2*d^2
mul 2 2 2 2*d
"""
    return load_algebra(text)


def test_two_variable_radical_lattice_with_denominators():
    A = _skewed_radical_algebra()
    lat = radical_lattice(A)
    assert lat.rank == 1
    # off a Euclidean ring the complement is the non-pivot unit vectors
    fiber = A.generic_fiber()
    assert lat.complement == (tuple(fiber.basis_vector(0)), tuple(fiber.basis_vector(2)))
    # the cleared generator of the radical line (0, -d, 1) is primitive as
    # cleared: its pivot entry d misses the entry 1
    coords = [str(c) for c in lat.rows[0]]
    assert coords in (["0", "-d", "1"], ["0", "d", "-1"])
    g = candidate_discriminant(A)
    # the projection denominator d must be absorbed into the candidate
    assert not g.is_zero()
    from decompgen.primes import prime_spec as _ps

    pd = _ps(Zd, [Zd.parse("d")])
    assert contains(pd, g)
    dec = dec_ex(A)
    assert sorted(pt.prime.short_str() for pt in dec.excluded) == ["(2)"]
    # at (d) the radical stays one-dimensional: recovered, not excluded
    recovered = {pt.prime.short_str() for pt in dec.recovered}
    assert "(d)" in recovered
    assert not dec.unknown


def test_quotient_over_euclidean_ring_off_the_pivot_complement():
    """Over Q[y], t^2 = 2y*t - y^2 has radical line t - y, whose unimodular
    complement (e.g. the unit) is not the pivot-coordinate complement; the
    quotient must still be the one-dimensional field with integral
    constants."""
    from decompgen.algebra import load_algebra
    from decompgen.strata import quotient_over_ring

    A = load_algebra("""
algebra NIL
ring Q[y]
basis one t
unit 1, 0
mul 0 0 0 1
mul 0 1 1 1
mul 1 0 1 1
mul 1 1 0 -y^2
mul 1 1 1 2*y
""")
    B, lifts, denoms = quotient_over_ring(A, radical_lattice(A))
    K = B.field
    assert B.dim == 1 and B.unit == (K.one,) and B.sc == (((K.one,),),)
    assert len(lifts) == 1
    # the constants are integral on the unimodular complement, and the
    # echelon row (1, -1/y) of the lattice is not absorbed
    assert denoms == 1
    dec = dec_ex(A)
    assert str(dec.candidate) == "1" and dec.points == []
    tree = stratify(A)
    assert tree.kind == "node" and tree.stratum_description() == "all of Spec(R)"


def test_stratify_b3_over_zd_resolves_char_p_legs():
    """The regular trace form of B3's semisimple quotient vanishes over
    GF(2)(d) and GF(3)(d); the character-form fallback must still resolve
    those legs into verified strata."""
    from decompgen.corpus import brauer_algebra

    B3 = brauer_algebra(3, Zd)
    tree = stratify(B3)
    assert {pt.prime.short_str() for pt, _ in tree.children} == {
        "(2)", "(3)", "(d + 2)", "(d - 1)"}
    by_prime = {pt.prime.short_str(): child for pt, child in tree.children}
    leg2 = by_prime["(2)"]
    assert leg2.kind == "node"
    assert {pt.prime.short_str() for pt, _ in leg2.children} == {"(d)", "(d + 1)"}
    leg3 = by_prime["(3)"]
    assert leg3.kind == "node"
    assert {pt.prime.short_str() for pt, _ in leg3.children} == {"(d + 2)"}
    for child in by_prime.values():
        for _, leaf in child.children:
            assert leaf.kind == "point-leaf"


def test_monotone_invariant_along_chains(corpus):
    """Radical dimension can only grow along specialization chains."""
    B2Z = corpus["B2_Z"]
    chains = [
        ([], [Zd.from_int(2)], [Zd.from_int(2), Zd.parse("d")]),
        ([], [Zd.parse("d")], [Zd.from_int(2), Zd.parse("d")]),
        ([], [Zd.parse("d - 1")], [Zd.from_int(3), Zd.parse("d - 1")]),
        ([], [Zd.from_int(5)], [Zd.from_int(5), Zd.parse("d - 2")]),
    ]
    for chain in chains:
        dims = []
        for gens in chain:
            p = prime_spec(Zd, list(gens))
            ev = dec_gen_membership(B2Z, p)
            dims.append(ev.fiber_radical_dim)
        assert dims == sorted(dims), chain


def test_soundness_outside_candidate(corpus):
    """Sampled primes avoiding the candidate discriminant are trivial."""
    rng = random.Random(123)
    for key in ("ZC2", "ZS3", "Mat2_Z", "B2_Z", "TL2_Z"):
        A = corpus[key]
        g = candidate_discriminant(A)
        primes = _random_primes_z(rng, 40) if A.ring == Z else _random_primes_zd(rng, 40)
        tested = 0
        for p in primes:
            if contains(p, g):
                continue
            assert dec_gen_membership(A, p).trivial, (key, p)
            tested += 1
            if tested >= 10:
                break
        assert tested >= 5, key


@pytest.mark.parametrize("key, prime", [
    ("ZS3", "generic"), ("ZS3", "p=2"), ("Mat2_Z", "generic"), ("Mat2_Z", "p=2"),
    ("ZC2", "p=2"), ("B2_Z", "p=2"), ("TL2_Z", "p=2"), ("B2_Q", "generic"),
    ("B3_Zd", "p=2"), ("B3_Zd", "p=3"), ("UT2_Z", "generic"),
])
def test_character_gram_matches_traces_of_products(corpus, key, prime):
    """The certificate's form sum_S w_S chi_S, read from A's simples through
    the complement lifts, has the Gram determinant of B = A/J's own regular
    trace, built here from traces of B's left regular matrices, wherever no
    weight dim S / dim End(S) vanishes.  Where one does (B3 at 2 and 3) that
    determinant is 0, and the certificate's is nonzero and a nonzero
    constant times the one of the reference that chops B itself and sums
    the traces of each product XY over B's simples."""
    from decompgen import polyops as P
    from decompgen.algebra import restrict
    from decompgen.corpus import brauer_algebra
    from decompgen.fields import FuncField
    from decompgen.linalg import Matrix, det
    from decompgen.modules import is_split, regular_factors
    from decompgen.primes import parse_prime
    from decompgen.strata import quotient_over_ring

    A = brauer_algebra(3, Zd) if key == "B3_Zd" else corpus[key]
    R = restrict(A, parse_prime(prime, A.ring))
    B, lifts, _ = quotient_over_ring(R, radical_lattice(R))
    K = B.field
    d = det(Matrix(K, B.form_gram(weighted_character_values(R, lifts))))
    L = [B.left_regular_matrix(B.basis_vector(i)) for i in range(B.dim)]
    regular = det(Matrix(K, [[X.mul(Y).trace() for Y in L] for X in L]))
    _, data = is_split(R.generic_fiber())
    if all(not K.is_zero(K.from_int(m)) for m in data.multiplicities):
        assert key != "B3_Zd" and d == regular
        return
    acts = [s.module.action for s, _ in regular_factors(B)]
    gram = [[K.zero] * B.dim for _ in range(B.dim)]
    for i in range(B.dim):
        for j in range(B.dim):
            for mats in acts:
                gram[i][j] = K.add(gram[i][j], mats[i].mul(mats[j]).trace())
    ratio = K.div(d, det(Matrix(K, gram)))
    assert K.is_zero(regular) and not K.is_zero(d)
    if isinstance(K, FuncField):
        assert K.is_polynomial(ratio) and P.pis_const(K.numerator(ratio))


def test_integrality_fast_path_agrees_with_denominator_ideal():
    """RingDescriptor.contains decides on a canonical fraction-field scalar
    what is_unit(denominator_ideal(s, R)) decides through RingElements."""
    from decompgen import polyops as P
    from decompgen.primes import denominator_ideal
    from decompgen.rings import is_unit

    def agrees(ring, K, s):
        return ring.contains(s, K) == is_unit(denominator_ideal(s, ring))

    rng = random.Random(11)
    for ring_str in ("Q", "Z", "Z[d]", "Q[d]", "GF(5)[d]", "Q[x,y]"):
        ring = parse_ring(ring_str)
        K = ring.fraction_field()

        def element():
            terms = [(tuple(rng.randrange(3) for _ in range(ring.nv)),
                      ring.coeff.from_int(rng.randint(-4, 4))) for _ in range(rng.randrange(3))]
            return ring.to_field(ring.element(P.pnorm(ring.coeff, terms)), K)

        for _ in range(80):
            num, den = element(), element()
            if K.is_zero(den):
                continue
            den = K.mul(den, K.from_int(rng.choice((1, 1, 2, 3))))
            assert agrees(ring, K, K.div(num, den)), (ring_str, K.to_str(K.div(num, den)))

    # a constant denominator that is not a unit of Z[d], and 1/(d + 1)
    for ring_str, text, integral in (
            ("Z[d]", "d/2", False), ("Q[d]", "d/2", True), ("Z[d]", "1/(d + 1)", False),
            ("Q[d]", "1/(d + 1)", False), ("GF(5)[d]", "1/(d + 1)", False)):
        ring = parse_ring(ring_str)
        K = ring.fraction_field()
        d = K.var_scalar(0)
        s = (K.div(d, K.from_int(2)) if text == "d/2"
             else K.inv(K.add(d, K.one)))
        assert ring.contains(s, K) == integral, (ring_str, text)
        assert agrees(ring, K, s), (ring_str, text)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101, 103])
def test_sqrt_gf_is_the_smaller_root(p):
    # the square root a discriminant over GF(p)[d] is read with: the smaller
    # root of x^2 - u, as sympy's sqrt_mod gives it, or None off the squares
    from sympy.ntheory import sqrt_mod

    F = GFPrime(p)
    assert [_sqrt_scalar(F, u) for u in range(p)] == [sqrt_mod(u, p) for u in range(p)]


def test_sqrt_scalar_over_q():
    # the same rule over Q: the smaller root of x^2 - u, or None off the squares
    Q = Rationals()
    assert [_sqrt_scalar(Q, u) for u in (0, 4, Fraction(9, 4), 2, -1)] == [
        0, -2, Fraction(-3, 2), None, None]
