"""Exact linear algebra: echelon forms, characteristic polynomials, Hermite
normal forms with saturation, gcd-free bases."""

import random
from fractions import Fraction

import pytest

from decompgen import polyops as P
from decompgen.errors import EngineError, Inconsistent, NotSquare
from decompgen.fields import DenseKernels, FuncField, GFExt, GFPrime, Rationals, SparseKernels
from decompgen.linalg import (
    Matrix,
    char_poly,
    det,
    echelon_reduce,
    echelon_tails,
    eval_poly_at_matrix,
    coprime_base,
    gcd_free_basis,
    hermite_normal_form,
    inverse,
    kernel_basis,
    point_rank,
    rank,
    rref_rows,
    saturate_rows,
    solve,
)
from decompgen.rings import is_unit, parse_ring
from oracles import is_zero_matrix, matrix_add, reconstruct, zeros

QQ = Rationals()
F3 = GFPrime(3)
F4 = GFExt(2, 2, (1, 1, 1))
QX = FuncField(Rationals(), ("x",))
QD = FuncField(Rationals(), ("d",))

FIELDS = [QQ, F3, F4, QX]


def rand_scalar(F, rng):
    if isinstance(F, Rationals):
        return Fraction(rng.randint(-5, 5))
    if isinstance(F, GFPrime):
        return rng.randrange(F.p)
    if isinstance(F, GFExt):
        return tuple(rng.randrange(F.p) for _ in range(F.e))
    return F.from_int(rng.randint(-3, 3))


def rand_matrix(F, n, rng):
    return Matrix(F, [[rand_scalar(F, rng) for _ in range(n)] for _ in range(n)])


def rand_invertible(F, n, rng):
    while True:
        m = rand_matrix(F, n, rng)
        if not F.is_zero(det(m)):
            return m


def test_kernel_and_solve_examples():
    m = Matrix(QQ, [[1, 1], [1, 1]])
    m = Matrix(QQ, [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert kernel_basis(m) == [[Fraction(1), Fraction(-1)]]
    assert det(Matrix.identity(QQ, 5)) == 1
    assert solve(Matrix(F3, [[2]]), [1]) == [2]
    with pytest.raises(Inconsistent):
        solve(Matrix(QQ, [[Fraction(1)], [Fraction(1)]]), [Fraction(1), Fraction(2)])
    with pytest.raises(Inconsistent):  # x + y = 1 has a line of solutions
        solve(Matrix(QQ, [[1, 1]]), [1])
    with pytest.raises(NotSquare):
        det(Matrix(QQ, [[Fraction(1), Fraction(2)]]))


@pytest.mark.parametrize("F", [QQ, GFPrime(7), F4, QD], ids=lambda f: repr(f))
def test_inverse(F):
    """M M^-1 = M^-1 M = I on seeded invertible matrices; a singular matrix
    raises Inconsistent and a non-square one NotSquare."""
    rng = random.Random(31)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            m = rand_invertible(F, n, rng)
            minv = inverse(m)
            assert m.mul(minv) == Matrix.identity(F, n) == minv.mul(m)
        rows = [[rand_scalar(F, rng) for _ in range(n)] for _ in range(n - 1)]
        two = F.from_int(2)
        last = rows[0] if rows else [F.zero]
        singular = Matrix(F, rows + [[F.mul(two, c) for c in last]])
        assert F.is_zero(det(singular))
        with pytest.raises(Inconsistent):
            inverse(singular)
        with pytest.raises(NotSquare):
            inverse(Matrix(F, rows + [[F.one] * n, [F.zero] * n]))


def test_char_poly_examples():
    assert char_poly(zeros(QQ, 2, 2)) == (Fraction(0), Fraction(0), Fraction(1))
    assert char_poly(Matrix.identity(QQ, 2)) == (Fraction(1), Fraction(-2), Fraction(1))
    swap = Matrix(QQ, [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert char_poly(swap) == (Fraction(-1), Fraction(0), Fraction(1))


@pytest.mark.parametrize("F", FIELDS, ids=lambda f: repr(f))
def test_char_poly_similarity_invariance(F):
    rng = random.Random(17)
    for n in (2, 3, 4):
        for _ in range(8):
            m = rand_matrix(F, n, rng)
            p = rand_invertible(F, n, rng)
            pinv_cols = [solve(p, [F.one if i == j else F.zero for i in range(n)])
                         for j in range(n)]
            pinv = Matrix(F, [[pinv_cols[j][i] for j in range(n)] for i in range(n)])
            conj = p.mul(m).mul(pinv)
            assert char_poly(conj) == char_poly(m)


@pytest.mark.parametrize("F", FIELDS, ids=lambda f: repr(f))
def test_char_poly_block_multiplicativity(F):
    rng = random.Random(23)
    for _ in range(10):
        a = rand_matrix(F, 2, rng)
        b = rand_matrix(F, 3, rng)
        n = 5
        rows = [[F.zero] * n for _ in range(n)]
        for i in range(2):
            for j in range(2):
                rows[i][j] = a.rows[i][j]
        for i in range(3):
            for j in range(3):
                rows[2 + i][2 + j] = b.rows[i][j]
        block = Matrix(F, rows)
        assert char_poly(block) == P.umul(F, char_poly(a), char_poly(b))


def test_char_poly_over_qd_needs_no_gcd_swell():
    # a 7x7 matrix with entries a + b*d: an elimination that divides in Q(d)
    # swells the gcds of its entries on it; the result is checked against sympy
    import time

    import sympy

    rng = random.Random(7)
    n = 7
    pairs = [[(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    d = QD.var_scalar(0)
    m = Matrix(QD, [[QD.add(QD.from_int(a), QD.mul(QD.from_int(b), d)) for a, b in r]
                    for r in pairs])
    start = time.perf_counter()
    chi = char_poly(m)
    assert time.perf_counter() - start < 2.0
    sd, sx = sympy.symbols("d X")
    ref = sympy.Matrix([[a + b * sd for a, b in r] for r in pairs]).charpoly(sx).all_coeffs()
    assert len(chi) == n + 1
    for c, r in zip(chi, reversed(ref)):
        assert QD.is_polynomial(c)
        num = QD.numerator(c)
        got = sum(sympy.Rational(x.numerator, x.denominator) * sd ** e for (e,), x in num)
        assert sympy.expand(got - r) == 0


@pytest.mark.parametrize("F", FIELDS, ids=lambda f: repr(f))
def test_cayley_hamilton(F):
    rng = random.Random(29)
    for n in (2, 3, 4):
        m = rand_matrix(F, n, rng)
        assert is_zero_matrix(eval_poly_at_matrix(F, char_poly(m), m))


ZZ = parse_ring("Z").plain()[0]


def test_hermite_saturation_examples():
    assert saturate_rows(ZZ, [[2, 0], [0, 2]]) == ([[1, 0], [0, 1]], [])
    assert saturate_rows(ZZ, [[2, 2]])[0] == [[1, 1]]
    # over Q[x]: {(x, x^2)} saturates to {(1, x)}
    E = parse_ring("Q[x]").plain()[0]
    assert saturate_rows(E, [[(0, 1), (0, 0, 1)]])[0] == [[(1,), (0, 1)]]


def _lattice_entry(ring, rng, deg=2):
    """An int in [-9, 9] over Z, a polynomial of degree <= deg with
    coefficients in [-4, 4] over k[x]."""
    if ring.nv == 0:
        return ring.from_int(rng.randint(-9, 9))
    x = ring.var(ring.varnames[0])
    return sum((ring.from_int(rng.randint(-4, 4)) * x ** k for k in range(deg + 1)),
               ring.zero())


def _lattice_rows(ring, rng):
    """m x n rows, m <= n, one of them times a non-unit and sometimes one the
    sum of two others: the lattice is rarely saturated, and its rank can be
    below m."""
    m = rng.randrange(1, 4)
    n = rng.randrange(m, 5)
    rows = [[_lattice_entry(ring, rng) for _ in range(n)] for _ in range(m)]
    f = ring.from_int(rng.choice((2, 3, 6))) if ring.nv == 0 else (
        ring.var(ring.varnames[0]) - rng.randint(-2, 2))
    rows[0] = [f * c for c in rows[0]]
    if m > 2 and rng.random() < 0.3:
        rows[2] = [a + b for a, b in zip(rows[0], rows[1])]
    return rows


def _in_lattice(E, basis, vec):
    """Whether vec is an R-combination of the rows of a Hermite basis: each
    row clears its pivot entry from what is left of vec, by exact division."""
    v = list(vec)
    for row in basis:
        j = next(k for k, a in enumerate(row) if not E.is_zero(a))
        q, rem = E.divmod(v[j], row[j])
        if not E.is_zero(rem):
            return False
        v = [E.sub(a, E.mul(q, b)) for a, b in zip(v, row)]
    return all(E.is_zero(a) for a in v)


def test_hermite_saturation_idempotent_and_rank_preserving():
    """The saturation contains every input row, has the rank over K of the
    input, is its own saturation, and completes with the complement of the
    same split to a matrix of unit determinant: so it is saturated, which
    the Hermite form of the input alone rarely is."""
    rng = random.Random(31)
    for ring_text in ("Z", "Q[x]", "GF(5)[x]"):
        ring = parse_ring(ring_text)
        E, to_plain, from_plain = ring.plain()
        K = ring.fraction_field()
        unsaturated = 0
        for _ in range(40):
            rows = _lattice_rows(ring, rng)
            reps = [[to_plain(c) for c in r] for r in rows]
            sat, comp = saturate_rows(E, reps)
            assert saturate_rows(E, sat)[0] == sat
            assert len(sat) == rank(Matrix(K, [[ring.to_field(c, K) for c in r] for r in rows]))
            for r in reps:
                assert _in_lattice(E, sat, r)
            unsaturated += hermite_normal_form(E, reps).basis != sat
            if not sat:
                continue
            full = sat + comp
            d = det(Matrix(K, [[ring.to_field(from_plain(c), K) for c in r] for r in full]))
            assert is_unit(ring.from_field_scalar(d, K)), (ring_text, rows)
        assert unsaturated >= 20, ring_text


def test_hermite_transform_is_unimodular_and_spans_the_columns():
    """The transform W has a unit determinant, and its first r rows (r the
    rank) span over K the columns of the input: rows = W[:r]^T G for the
    echelon form G, which is all that saturate_rows reads of W."""
    rng = random.Random(37)
    for ring_text in ("Z", "Q", "Q[x]", "GF(5)[x]"):
        ring = parse_ring(ring_text)
        E, to_plain, from_plain = ring.plain()
        K = ring.fraction_field()
        to_K = lambda rows: Matrix(K, [[ring.to_field(from_plain(c), K) for c in r]
                                       for r in rows])
        for _ in range(30):
            rows = [[to_plain(c) for c in r] for r in _lattice_rows(ring, rng)]
            res = hermite_normal_form(E, rows)
            W, r = res.transform, len(res.basis)
            assert r == rank(to_K(rows)), (ring_text, rows)
            assert rank(to_K(W[:r])) == r, (ring_text, rows)
            assert rank(to_K(W[:r] + [list(c) for c in zip(*rows)])) == r, (ring_text, rows)
            assert is_unit(ring.from_field_scalar(det(to_K(W)), K)), (ring_text, rows)


def test_saturation_completes_to_a_unimodular_basis():
    """The saturation and the complement of one split form a matrix of
    determinant +-1, also when the input rows are not saturated."""
    for basis in ([[2, 1]], [[1, 2]], [[1, 0, 3], [0, 1, 4]], [[2, 0]], [[2, 4, 6], [0, 3, 3]]):
        sat, comp = saturate_rows(ZZ, basis)
        assert len(sat) == len(basis) and len(sat) + len(comp) == len(basis[0])
        assert abs(det(Matrix(QQ, sat + comp))) == 1


def test_hermite_canonical_form():
    res = hermite_normal_form(ZZ, [[4, 6], [2, 5]])
    assert res.basis == [[2, 1], [0, 4]]
    # entries above pivots are reduced
    res = hermite_normal_form(ZZ, [[1, 7], [0, 3]])
    assert res.basis == [[1, 1], [0, 3]]


def test_gcd_free_basis_examples():
    x2m1 = (Fraction(-1), Fraction(0), Fraction(1))
    xm1 = (Fraction(-1), Fraction(1))
    xp1 = (Fraction(1), Fraction(1))
    gb = gcd_free_basis(QQ, [x2m1, xm1])
    assert gb.basis == (xm1, xp1)
    assert gb.mults == ((1, 1), (1, 0))
    gb = gcd_free_basis(QQ, [(Fraction(0), Fraction(0), Fraction(1))])
    assert gb.basis == ((Fraction(0), Fraction(1)),)
    assert gb.mults == ((2,),)
    sq = (Fraction(1), Fraction(2), Fraction(1))
    gb = gcd_free_basis(QQ, [x2m1, sq])
    assert gb.mults == ((1, 1), (0, 2))
    # repeats, and repeats up to a unit: each input keeps its own unit, and
    # every copy gets the row of its monic form
    x2m1_3 = tuple(QQ.mul(3, c) for c in x2m1)
    xm1_half = tuple(QQ.mul(Fraction(-1, 2), c) for c in xm1)
    gb = gcd_free_basis(QQ, [x2m1, xm1, x2m1, x2m1_3, xm1_half, sq, xm1])
    assert gb.basis == (xm1, xp1)
    assert gb.units == (1, 1, 1, 3, Fraction(-1, 2), 1, 1)
    assert gb.mults == ((1, 1), (1, 0), (1, 1), (1, 1), (1, 0), (0, 2), (1, 0))


@pytest.mark.parametrize("F", [QQ, F3, F4], ids=lambda f: repr(f))
def test_gcd_free_reconstruction_randomized(F):
    rng = random.Random(37)
    atoms = []
    for _ in range(4):
        a = (rand_scalar(F, rng), F.one)
        atoms.append(a)
    for _ in range(30):
        polys = []
        for _ in range(rng.randrange(1, 4)):
            p = (rand_scalar(F, rng),) if not F.is_zero(rand_scalar(F, rng)) else (F.one,)
            if F.is_zero(p[0]):
                p = (F.one,)
            for _ in range(rng.randrange(1, 4)):
                p = P.umul(F, p, atoms[rng.randrange(len(atoms))])
            polys.append(p)
        gb = gcd_free_basis(F, polys)
        for i, p in enumerate(polys):
            assert reconstruct(gb, i) == p
        for i, a in enumerate(gb.basis):
            for b in gb.basis[i + 1:]:
                assert P.udeg(P.ugcd(F, a, b)) == 0


def _quotient(k, a, b):
    """a/b when b divides a, else None."""
    try:
        return k.exact_div(a, b)
    except EngineError:
        return None


@pytest.mark.parametrize("k, x", [(DenseKernels(QQ), (0, 1)), (DenseKernels(F3), (0, 1)),
                                  (SparseKernels(GFPrime(5), 2), (((1, 0), 1),))],
                         ids=["Q[x]", "GF(3)[x]", "GF(5)[x,y]"])
def test_exact_div_raises_when_not_exact(k, x):
    """Both kernel sets divide exactly and raise EngineError on a remainder:
    x^2 - 1 = (x + 1)(x - 1), while x + 1 does not divide x^2 + 1."""
    one = k.one
    x1 = k.add(x, one)
    assert k.exact_div(k.sub(k.mul(x, x), one), x1) == k.sub(x, one)
    with pytest.raises(EngineError, match="division not exact"):
        k.exact_div(k.add(k.mul(x, x), one), x1)


def _random_atom(k, rng):
    """A nonconstant polynomial of degree at most 2 in k's data."""
    B = k.base
    while True:
        if isinstance(k, DenseKernels):
            f = P.utrim(B, [B.from_int(rng.randint(-3, 3)) for _ in range(rng.randint(2, 3))])
        else:
            f = P.pnorm(B, [((rng.randint(0, 1), rng.randint(0, 1)), B.from_int(rng.randint(-3, 3)))
                            for _ in range(3)])
        if not k.is_const(f):
            return f


@pytest.mark.parametrize("k", [DenseKernels(QQ), DenseKernels(F3), SparseKernels(GFPrime(5), 2)],
                         ids=["Q[x]", "GF(3)[x]", "GF(5)[x,y]"])
def test_coprime_base_refines_products(k):
    """The pieces are nonconstant and pairwise coprime, and each input is a
    unit times a product of their powers; for squarefree inputs in one
    variable they are the pieces of gcd_free_basis, whatever the input
    order."""
    rng = random.Random(43)
    for _ in range(40):
        atoms = [_random_atom(k, rng) for _ in range(4)]
        squarefree = rng.random() < 0.5
        polys = []
        for _ in range(rng.randint(1, 4)):
            f = k.one
            for a in rng.sample(atoms, rng.randint(1, 3)):
                f = k.mul(f, a if squarefree else k.mul(a, a) if rng.random() < 0.3 else a)
            polys.append(f)
        pieces = coprime_base(k, polys)
        assert all(not k.is_const(f) for f in pieces)
        for i, f in enumerate(pieces):
            for g in pieces[i + 1:]:
                assert k.is_const(k.gcd(f, g))
        for f in polys:
            for g in pieces:
                while (q := _quotient(k, f, g)) is not None:
                    f = q
            assert k.is_const(f) and not k.is_zero(f)
        if isinstance(k, DenseKernels) and all(
                P.udeg(P.ugcd(k.base, f, P.uderiv(k.base, f))) == 0 for f in polys):
            monics = [P.umonic(k.base, f) for f in polys]
            assert set(coprime_base(k, monics)) == set(gcd_free_basis(k.base, polys).basis)


# --- the nonzero-column view of Matrix.apply ---------------------------------

QXY = FuncField(Rationals(), ("x", "y"))


def _entry(F, rng, density):
    """Zero with probability 1 - density, else a random scalar; over function
    fields a rational function in every variable."""
    if rng.random() >= density:
        return F.zero
    if isinstance(F, Rationals):
        return F.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    if not isinstance(F, FuncField):
        return rand_scalar(F, rng)
    num = F.from_int(rng.randint(-3, 3))
    for i in range(F.nv):
        num = F.add(num, F.mul(F.from_int(rng.randint(-2, 2)), F.var_scalar(i)))
    den = F.add(F.var_scalar(rng.randrange(F.nv)), F.from_int(rng.randint(1, 3)))
    return F.div(num, den)


def _apply_reference(mat, vec):
    """mat * vec row by row over every entry."""
    F = mat.field
    out = []
    for r in mat.rows:
        acc = F.zero
        for a, b in zip(r, vec):
            acc = F.add(acc, F.mul(a, b))
        out.append(acc)
    return out


@pytest.mark.parametrize("F", [QQ, GFPrime(7), F4, QD, QXY], ids=repr)
def test_apply_matches_row_by_row_reference(F):
    rng = random.Random(11)
    for m, n in ((1, 1), (4, 4), (5, 3), (3, 6)):
        for density in (1.0, 0.5, 0.2):
            rows = [[_entry(F, rng, density) for _ in range(n)] for _ in range(m)]
            if density < 1.0:  # a zero row and a zero column
                rows[rng.randrange(m)] = [F.zero] * n
                j = rng.randrange(n)
                for r in rows:
                    r[j] = F.zero
            M = Matrix(F, rows)
            vecs = [[F.zero] * n] + [[_entry(F, rng, d) for _ in range(n)]
                                     for d in (1.0, 0.5, 0.2)]
            for vec in vecs:  # the first call builds the view, later ones reuse it
                assert M.apply(vec) == _apply_reference(M, vec), (m, n, density)
    assert Matrix(F, []).apply([]) == []


# --- matrices built from their nonzero columns, and the sparse reduction ----------------

GF9 = GFExt(3, 2, (1, 0, 1))
SPARSE_FIELDS = [QQ, GFPrime(5), GF9, QD]


def _sparse_rows(F, rng, m, n, density):
    """Random m x n rows, with a zero row and a zero column when sparse."""
    rows = [[_entry(F, rng, density) for _ in range(n)] for _ in range(m)]
    if density < 1.0:
        rows[rng.randrange(m)] = [F.zero] * n
        j = rng.randrange(n)
        for r in rows:
            r[j] = F.zero
    return rows


@pytest.mark.parametrize("F", SPARSE_FIELDS, ids=repr)
def test_column_built_matrix_agrees_with_the_row_built_one(F):
    """Matrix.from_columns on the nonzero entries of each column gives the
    matrix Matrix(F, rows) gives: the same rows, columns, products,
    transpose and trace, and the two compare equal."""
    rng = random.Random(5)
    for m, n in ((1, 1), (4, 4), (5, 3), (3, 6), (6, 6)):
        for density in (1.0, 0.5, 0.2):
            rows = _sparse_rows(F, rng, m, n, density)
            cols = [[(i, r[j]) for i, r in enumerate(rows) if r[j] != F.zero] for j in range(n)]
            R = Matrix(F, rows)
            C = Matrix.from_columns(F, m, cols)
            assert (C.nrows, C.ncols) == (R.nrows, R.ncols) == (m, n)
            assert R.columns() == C.columns() == cols, (m, n, density)
            assert C.rows == R.rows == rows
            for j in range(n):
                assert C.column(j) == R.column(j) == [r[j] for r in rows]
            for vec in ([F.zero] * n, [_entry(F, rng, 0.5) for _ in range(n)]):
                assert C.apply(vec) == R.apply(vec) == _apply_reference(R, vec)
            assert C.transpose() == R.transpose()
            assert C.transpose().rows == [list(c) for c in zip(*rows)]
            if m == n:
                assert C.trace() == R.trace() == _trace_reference(F, rows)
            assert C == R and R == C
            changed = [list(r) for r in rows]
            i, j = rng.randrange(m), rng.randrange(n)
            changed[i][j] = F.add(changed[i][j], F.one)
            assert C != Matrix(F, changed)


def _trace_reference(F, rows):
    t = F.zero
    for i, r in enumerate(rows):
        t = F.add(t, r[i])
    return t


def _reduce_dense(F, rows, vec):
    """vec minus its components along echelon rows with unit pivots, taken
    in order, over every entry of dense vectors."""
    work = list(vec)
    for row in rows:
        pj = next(k for k, c in enumerate(row) if c != F.zero)
        f = work[pj]
        work = [F.sub(w, F.mul(f, c)) for w, c in zip(work, row)]
    return work


@pytest.mark.parametrize("F", SPARSE_FIELDS, ids=repr)
def test_echelon_reduce_matches_the_dense_reference(F):
    """echelon_reduce on a vector's nonzero entries gives the nonzero
    entries of the dense reduction, with no explicit zero, for reduced
    echelon rows and for echelon rows whose tails reach later pivots (the
    spin's rows, reduced in order); a vector of their span reduces to {}."""
    rng = random.Random(8)
    for n, density in ((3, 1.0), (6, 0.5), (8, 0.3), (8, 0.6)):
        for _ in range(4):
            reduced, _ = rref_rows(F, _sparse_rows(F, rng, rng.randint(1, n - 1), n, density))
            # add later rows to earlier ones: still echelon with unit pivots
            unreduced = [list(r) for r in reduced]
            for a in range(len(unreduced)):
                for b in range(a + 1, len(unreduced)):
                    c = _entry(F, rng, 0.5)
                    unreduced[a] = [F.add(x, F.mul(c, y))
                                    for x, y in zip(unreduced[a], unreduced[b])]
            for rows in (reduced, unreduced):
                tails = echelon_tails(F, rows)
                span = [F.zero] * n
                for r in rows:
                    c = _entry(F, rng, 1.0)
                    span = [F.add(x, F.mul(c, y)) for x, y in zip(span, r)]
                vecs = [span, [F.zero] * n] + [[_entry(F, rng, density) for _ in range(n)]
                                              for _ in range(4)]
                for vec in vecs:
                    nonzero = {k: c for k, c in enumerate(vec) if c != F.zero}
                    want = {k: c for k, c in enumerate(_reduce_dense(F, rows, vec))
                            if c != F.zero}
                    got = echelon_reduce(F, tails, nonzero)
                    assert got == want == echelon_reduce(F, tails, sorted(nonzero.items()))
                    assert all(c != F.zero for c in got.values())
                    assert nonzero == {k: c for k, c in enumerate(vec) if c != F.zero}
                assert echelon_reduce(F, tails, {k: c for k, c in enumerate(span)
                                                 if c != F.zero}) == {}


@pytest.mark.parametrize("F", [QQ, GFPrime(5), QD], ids=repr)
def test_eval_poly_at_matrix_matches_the_power_sum(F):
    """f(X) is the sum of c_i X^i: the zero polynomial, degrees 0 to 4 with
    zero and nonzero constant and middle coefficients, and a lead other
    than one."""
    rng = random.Random(13)
    for n in (1, 2, 3):
        X = Matrix(F, [[_entry(F, rng, 0.7) for _ in range(n)] for _ in range(n)])
        polys = [()] + [P.utrim(F, tuple(_entry(F, rng, 0.6) for _ in range(deg))
                                + (_entry(F, rng, 1.0) or F.one,))
                        for deg in range(5) for _ in range(3)]
        for f in polys:
            want, power = zeros(F, n, n), Matrix.identity(F, n)
            for c in f:
                want, power = matrix_add(want, power.scale(c)), power.mul(X)
            assert eval_poly_at_matrix(F, f, X) == want, (n, f)


# --- rank at one point of k^nv ------------------------------------------------------

GF5D = FuncField(GFPrime(5), ("d",))
GF2D = FuncField(GFPrime(2), ("d",))


def _pole_entry(F, rng):
    """A random entry with a denominator vanishing at one of the points
    point_rank tries (d, x or y = 3, 5 or 7, read in the base field)."""
    v = F.var_scalar(rng.randrange(F.nv))
    den = F.sub(v, F.from_int(rng.choice((3, 5, 7))))
    return F.div(_entry(F, rng, 1.0), den) if not F.is_zero(den) else F.zero


def _low_rank(F, rng, m, n, r, poles):
    """An m x n matrix of rank at most r: a product of m x r and r x n."""
    pick = lambda: _pole_entry(F, rng) if rng.random() < poles else _entry(F, rng, 0.7)
    left = Matrix(F, [[pick() for _ in range(r)] for _ in range(m)])
    right = Matrix(F, [[pick() for _ in range(n)] for _ in range(r)])
    return left.mul(right)


# the exact rank over k(vars) these are checked against is slow on larger shapes
@pytest.mark.parametrize("F, shapes", [
    (QD, ((3, 3), (4, 3), (3, 4))),
    (GF5D, ((3, 3), (4, 4), (5, 3), (3, 6))),
    (GF2D, ((3, 3), (4, 4), (5, 3), (3, 6))),
    (QXY, ((2, 2), (2, 3))),
], ids=["Q(d)", "GF(5)(d)", "GF(2)(d)", "Q(x,y)"])
def test_point_rank_is_a_lower_bound(F, shapes):
    rng = random.Random(5)
    cases = attained = 0
    for m, n in shapes:
        for r in range(1, min(m, n) + 1):
            for poles in (0.0, 0.3):
                M = _low_rank(F, rng, m, n, r, poles)
                pr = point_rank(M)
                assert pr is None or pr <= rank(M), (m, n, r, poles)
                cases += 1
                attained += pr == rank(M)
    if F != GF2D:  # GF(2) has one nonzero point to try
        assert attained >= cases // 3


def test_point_rank_skips_poles_and_never_guesses():
    # d = 3 is a pole: the rank is read at d = 5, where the matrix is
    # singular exactly as it is over Q(d)
    d, one = QD.var_scalar(0), QD.one
    pole = QD.inv(QD.sub(d, QD.from_int(3)))
    singular = Matrix(QD, [[pole, one], [one, QD.sub(d, QD.from_int(3))]])
    assert rank(singular) == 1 and point_rank(singular) == 1
    regular = Matrix(QD, [[pole, one], [one, d]])
    assert rank(regular) == 2 and point_rank(regular) == 2
    # every point is a pole: no rank at all
    poles = [QD.inv(QD.sub(d, QD.from_int(c))) for c in (3, 5, 7)]
    assert point_rank(Matrix(QD, [poles])) is None
    x = GF2D.var_scalar(0)
    assert point_rank(Matrix(GF2D, [[GF2D.inv(GF2D.add(x, GF2D.one))]])) is None
    # nonsingular over Q(d), singular at every point tried
    f = QD.one
    for c in (3, 5, 7):
        f = QD.mul(f, QD.sub(d, QD.from_int(c)))
    diag = Matrix(QD, [[f, QD.zero], [QD.zero, one]])
    assert rank(diag) == 2 and point_rank(diag) == 1
    # no function field, no point
    for F in (QQ, F3, F4):
        assert point_rank(Matrix.identity(F, 2)) is None


# --- determinants ---------------------------------------------------------------

def _cofactor_det(F, rows):
    """Laplace expansion along the first row."""
    if not rows:
        return F.one
    out = F.zero
    for j, c in enumerate(rows[0]):
        if not F.is_zero(c):
            term = F.mul(c, _cofactor_det(F, [r[:j] + r[j + 1:] for r in rows[1:]]))
            out = F.sub(out, term) if j % 2 else F.add(out, term)
    return out


GF3D = FuncField(GFPrime(3), ("d",))


def _mixed_entry(F, rng, density):
    """Zero with probability 1 - density, else a constant, a polynomial or
    a fraction in every variable: entries of different sizes."""
    if rng.random() >= density:
        return F.zero
    kind = rng.randrange(3)
    if kind == 0:
        return F.from_int(rng.randint(1, 4))
    if kind == 1:
        v = F.var_scalar(rng.randrange(F.nv))
        return F.add(F.mul(v, F.sub(v, F.from_int(rng.randint(1, 2)))), F.from_int(rng.randint(0, 2)))
    return _entry(F, rng, 1.0)


def _size(a):
    """Numerator plus denominator length of a FuncField scalar."""
    return len(a[0]) + len(a[1])


SHAPES = ("plain", "swap", "zero column")
MIXED = ("mixed",) * 3  # three seeded draws per size and density


@pytest.mark.parametrize("F, shapes, largest", [
    (QQ, SHAPES, 5), (GFPrime(5), SHAPES, 5), (QD, SHAPES + MIXED, 5), (GF2D, SHAPES, 5),
    (GF3D, MIXED, 5), (QXY, MIXED, 3),
], ids=["Q", "GF(5)", "Q(d)", "GF(2)(d)", "GF(3)(d)", "Q(x,y)"])
def test_det_equals_cofactor_expansion(F, shapes, largest, monkeypatch):
    """det, which updates only right of each pivot and only over the pivot
    row's nonzero columns, equals cofactor expansion on seeded matrices up
    to 5 x 5: dense and sparse ones, ones whose first pivot needs a row
    swap, and ones with a zero column.  The mixed shape mixes constants,
    polynomials and fractions, so the shortest entry of the first column is
    often not its first nonzero one, and det must invert that shortest
    entry (the first of equal length) first.  Q(x,y) stops at 3 x 3:
    elimination there pays a two-variable gcd per entry."""
    rng, mixed_rng = random.Random(53), random.Random(59)
    swapped = reordered = 0
    for n in range(1, largest + 1):
        for density in (1.0, 0.6, 0.3):
            for shape in shapes:
                if shape == "mixed":
                    rows = [[_mixed_entry(F, mixed_rng, density) for _ in range(n)] for _ in range(n)]
                else:
                    rows = [[_entry(F, rng, density) for _ in range(n)] for _ in range(n)]
                if shape == "swap" and n > 1:
                    rows[0][0] = F.zero
                    rows[1][0] = F.one
                    swapped += 1
                elif shape == "zero column":
                    j = rng.randrange(n)
                    for r in rows:
                        r[j] = F.zero
                expected = _cofactor_det(F, rows)
                pivots = []
                if shape == "mixed":
                    inv = FuncField.inv
                    monkeypatch.setattr(FuncField, "inv", lambda K, a: pivots.append(a) or inv(K, a))
                got = det(Matrix(F, rows))
                monkeypatch.undo()
                assert got == expected, (n, density, shape)
                if shape == "zero column":
                    assert F.is_zero(expected)
                column = [r[0] for r in rows if not F.is_zero(r[0])]
                if shape == "mixed" and column:
                    shortest = min(column, key=_size)
                    assert pivots[0] == shortest, (n, density)
                    reordered += _size(column[0]) > _size(shortest)
    assert swapped or "swap" not in shapes
    assert reordered or "mixed" not in shapes
