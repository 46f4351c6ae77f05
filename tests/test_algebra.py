"""Structure-constant algebras: validation, fibers, restrictions, ideals."""

import random
from itertools import permutations, product

import pytest

from decompgen import algebra
from decompgen.algebra import (
    FiniteFreeAlgebra,
    TableKey,
    load_algebra,
    nilpotency_index,
    restrict,
    serialize_algebra,
    span_subspace,
    specialize,
)
from decompgen.errors import (
    NoUnit,
    NotAssociative,
    UnsupportedRestriction,
    UnsupportedRing,
    ValidationError,
)
from decompgen.corpus import REGISTRY, brauer_algebra, dual_numbers, temperley_lieb
from decompgen.decomposition import split_data
from decompgen.fields import GFPrime
from decompgen.modules import is_split, radical
from decompgen.primes import generic_point, prime_spec, quotient_chain, reduce_elem
from decompgen.rings import parse_ring
from oracles import UnitInIdeal, ideal_closure, one_sided_products, quotient_algebra, vec_mul

Z = parse_ring("Z")
Zd = parse_ring("Z[d]")
Qd = parse_ring("Q[d]")


def test_load_rejects_bad_tables():
    # s*s = s with s also declared as the unit cannot satisfy the unit law
    text = """
algebra broken
ring Z
basis e s
unit 1, 0
mul 0 0 0 1
mul 0 1 1 1
mul 1 0 1 1
mul 1 1 1 1
"""
    A = load_algebra(text)  # this one is fine: s is idempotent, e the unit
    assert A.dim == 2
    bad_unit = text.replace("unit 1, 0", "unit 0, 1")
    with pytest.raises(NoUnit):
        load_algebra(bad_unit)
    # (aa)a = ba = 0 while a(aa) = ab = e
    bad_assoc = """
algebra broken
ring Z
basis e a b
unit 1, 0, 0
mul 0 0 0 1
mul 0 1 1 1
mul 0 2 2 1
mul 1 0 1 1
mul 2 0 2 1
mul 1 1 2 1
mul 1 2 0 1
"""
    with pytest.raises(NotAssociative, match=r"^\(b1 b1\) b1 != b1 \(b1 b1\) in broken$"):
        load_algebra(bad_assoc)
    # the same checks on a table built directly, over Z and over GF(5)
    bad = load_algebra(bad_assoc, validate=False)
    F5 = GFPrime(5)
    for base, conv in ((Z, Z.from_int), (F5, F5.from_int)):
        sc = tuple(tuple(tuple(conv(c.const_value()) for c in row) for row in plane)
                   for plane in bad.sc)
        unit = tuple(conv(c.const_value()) for c in bad.unit)
        with pytest.raises(NotAssociative):
            FiniteFreeAlgebra("broken", base, bad.basis_names, sc, unit)
        with pytest.raises(NoUnit):
            FiniteFreeAlgebra("short", base, ("a", "b"), sc[:2], unit[:1])


def test_first_failing_triple_is_named(corpus):
    # one constant of TL4_Q off by one: the check runs over (i, j, k) in
    # order and names the first triple whose two products differ
    A = corpus["TL4_Q"]
    sc = [[list(r) for r in plane] for plane in A.sc]
    sc[9][4][11] = sc[9][4][11] + A.ring.from_int(1)
    sc = tuple(tuple(tuple(r) for r in plane) for plane in sc)
    with pytest.raises(NotAssociative, match=r"^\(b0 b9\) b4 != b0 \(b9 b4\) in TL4_Q$"):
        FiniteFreeAlgebra(A.name, A.ring, A.basis_names, sc, A.unit, A.trace_vector)


def _first_failing_triple(A):
    """The first (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), found with
    the ring's own RingElement arithmetic on the full table, or None."""
    n, sc, zero = A.dim, A.sc, A.ring.zero()
    for i, j, k in product(range(n), repeat=3):
        left = [sum((sc[i][j][l] * sc[l][k][m] for l in range(n)), zero) for m in range(n)]
        right = [sum((sc[j][k][l] * sc[i][l][m] for l in range(n)), zero) for m in range(n)]
        if left != right:
            return i, j, k
    return None


def hecke_s3(R):
    """The Iwahori-Hecke algebra of S3 over R = Z[q], on the basis T_w of
    the permutations w: T_s T_w = T_sw when sw is longer than w, and
    (q - 1) T_w + q T_sw when it is shorter, so products have one to
    several terms."""
    q, zero = R.var("q"), R.zero()

    def length(w):
        return sum(w[a] > w[b] for a in range(3) for b in range(a + 1, 3))

    elems = sorted(permutations(range(3)), key=lambda w: (length(w), w))
    index = {w: i for i, w in enumerate(elems)}
    simples = [(1, 0, 2), (0, 2, 1)]

    def left(s, w):
        return tuple(s[x] for x in w)

    def times_s(s, vec):
        out = [zero] * 6
        for w, c in zip(elems, vec):
            sw = index[left(s, w)]
            if length(elems[sw]) > length(w):
                out[sw] += c
            else:
                out[index[w]] += c * (q - 1)
                out[sw] += c * q
        return out

    def times(w, vec):  # T_w = T_s T_sw for a left descent s of w
        for s in simples:
            if length(left(s, w)) < length(w):
                return times_s(s, times(left(s, w), vec))
        return vec

    basis = [[R.one() if k == j else zero for k in range(6)] for j in range(6)]
    sc = tuple(tuple(tuple(times(w, basis[j])) for j in range(6)) for w in elems)
    return FiniteFreeAlgebra("H3", R, [f"T{i}" for i in range(6)], sc, basis[0])


_REFERENCE_TABLES = pytest.mark.parametrize("ring, build", [
    ("Z", lambda R: REGISTRY["ZS3"].algebra()),
    ("Z[d]", lambda R: temperley_lieb(3, R, "TL3")),
    ("Q[d]", lambda R: brauer_algebra(2, R, "B2")),
    ("Q[x,y]", lambda R: temperley_lieb(3, R, "TL3", delta=R.parse("x + y"))),
    ("GF(5)[x,y]", lambda R: brauer_algebra(2, R, "B2", delta=R.parse("x*y + 2"))),
    ("Z[q]", hecke_s3),
], ids=["Z", "Z[d]", "Q[d]", "Q[x,y]", "GF(5)[x,y]", "Hecke_S3-Z[q]"])


def _check_names_the_reference_triple(A, change):
    """Applies change(sc, rng) to copies of A's table six times (seeded) and
    requires the load check to name the triple that RingElement arithmetic
    finds first, or to accept a changed table that is still associative;
    returns how many changed tables were not associative."""
    R = A.ring
    rng = random.Random(8)
    failing = 0
    for _ in range(6):
        sc = [[list(r) for r in plane] for plane in A.sc]
        change(sc, rng)
        sc = tuple(tuple(tuple(r) for r in plane) for plane in sc)
        triple = _first_failing_triple(
            FiniteFreeAlgebra(A.name, R, A.basis_names, sc, A.unit, validate=False))
        if triple is None:  # the changed table is another associative one
            FiniteFreeAlgebra(A.name, R, A.basis_names, sc, A.unit)
            continue
        failing += 1
        a, b, c = triple
        with pytest.raises(NotAssociative,
                           match=rf"^\(b{a} b{b}\) b{c} != b{a} \(b{b} b{c}\) in {A.name}$"):
            FiniteFreeAlgebra(A.name, R, A.basis_names, sc, A.unit)
    return failing


@_REFERENCE_TABLES
def test_load_check_names_the_reference_triple(ring, build):
    """The associativity check runs on plain coefficient data (values, dense
    or sparse polynomials by the number of variables); a seeded change of
    one nonzero constant away from the unit's row and column gets the
    triple that RingElement arithmetic finds first.  The Hecke algebra's
    products of several terms take the check's general path, the other
    tables' one-term products its direct compare."""
    R = parse_ring(ring)
    A = build(R)
    u = A.unit.index(R.one())
    others = [i for i in range(A.dim) if i != u]

    def change(sc, rng):
        i, j = rng.choice(others), rng.choice(others)
        k = rng.choice(A.terms[i][j])[0] if A.terms[i][j] else rng.randrange(A.dim)
        sc[i][j][k] = sc[i][j][k] + R.from_int(rng.randint(1, 3))

    assert _check_names_the_reference_triple(A, change) >= 3


@_REFERENCE_TABLES
def test_load_check_names_the_reference_triple_of_a_moved_constant(ring, build):
    """A nonzero constant swapped with another entry of its product keeps
    the coefficients and changes only where they sit: a check that compared
    the coefficients of one-term products alone would accept these tables."""
    R = parse_ring(ring)
    A = build(R)
    u = A.unit.index(R.one())
    pairs = [(i, j) for i in range(A.dim) for j in range(A.dim)
             if u not in (i, j) and A.terms[i][j]]

    def change(sc, rng):
        i, j = rng.choice(pairs)
        k, c = rng.choice(A.terms[i][j])
        to = rng.choice([m for m in range(A.dim) if m != k])
        sc[i][j][k], sc[i][j][to] = sc[i][j][to], c

    assert _check_names_the_reference_triple(A, change) >= 3


def test_terms_match_the_table(corpus, b3):
    tables = [A for A in corpus.values()] + [b3]
    tables += [specialize(A, generic_point(A.ring)) for A in tables]
    for A in tables:
        n, D = A.dim, A.domain
        assert len(A.terms) == n and all(len(plane) == n for plane in A.terms)
        for i in range(n):
            for j in range(n):
                expect = tuple((k, c) for k, c in enumerate(A.sc[i][j]) if not D.is_zero(c))
                assert A.terms[i][j] == expect, (A.name, i, j)


@pytest.mark.parametrize("edit, message", [
    (lambda t: t.replace("basis e s", "basis e e"), "line 4: basis name 'e' is repeated"),
    (lambda t: t + "mul 0 0 0 2\n", "line 10: mul 0 0 0 repeats line 6"),
    (lambda t: t + "mul 0 0\n", "line 10: expected 'mul i j k coefficient'"),
    (lambda t: t + "mul 0 x 0 1\n", "line 10: mul indices must be integers"),
    (lambda t: t + "mul 1 1 0 2*\n", "line 10: "),
    (lambda t: t + "mul 0 0 2 1\n", "line 10: mul indices 0 0 2 out of range"),
    (lambda t: t + "foo 1\n", "line 10: unknown definition line 'foo 1'"),
    (lambda t: t.replace("unit 1, 0", "unit 1, x"), "line 5: unknown variable 'x' in Z"),
    (lambda t: t + "trace 1, 1/2\n", "line 10: 1/2 is not an integer coefficient"),
    # each distinct text is parsed once; a bad one is still reported at its
    # first line, also when a later line comes first in index order
    (lambda t: t.replace("mul 1 1 1 1", "mul 1 1 1 1/0") + "mul 1 1 0 1/0\n",
     "line 9: 1/0 has a zero denominator"),
])
def test_load_reports_the_bad_line(edit, message):
    text = """
algebra idem
ring Z
basis e s
unit 1, 0
mul 0 0 0 1
mul 0 1 1 1
mul 1 0 1 1
mul 1 1 1 1
"""
    load_algebra(text)
    with pytest.raises(ValidationError) as exc:
        load_algebra(edit(text))
    assert str(exc.value).startswith(message)


def test_b2_loads_and_serializes(corpus):
    A = corpus["B2_Z"]
    text = serialize_algebra(A)
    B = load_algebra(text)
    assert serialize_algebra(B) == text
    assert B.sc == A.sc and B.unit == A.unit
    # analyses live with the loaded algebra: a second load of the same text
    # starts from nothing
    split_data(B)
    C = load_algebra(text)
    assert B.analyses and not C.analyses and C.generic_fiber() is not B.generic_fiber()


def test_specialize_preserves_dimension(corpus):
    A = corpus["B2_Z"]
    for gens in ([], [Zd.from_int(2)], [Zd.parse("d")], [Zd.from_int(3), Zd.parse("d - 1")]):
        p = prime_spec(Zd, gens)
        F = specialize(A, p, validate=True)
        assert F.dim == A.dim


def test_restrict_examples(corpus):
    B2 = corpus["B2_Z"]
    R2 = restrict(B2, prime_spec(Zd, [Zd.from_int(2)]))
    assert repr(R2.ring) == "GF(2)[d]"
    Rd = restrict(B2, prime_spec(Zd, [Zd.parse("d")]))
    assert Rd.ring == Z
    # u^2 = d*u dies at d = 0
    u_idx = 0  # diagram basis order puts the through-free diagram first
    assert Rd.sc[u_idx][u_idx][u_idx].is_zero()
    S3 = corpus["ZS3"]
    assert restrict(S3, generic_point(Z)) is S3
    # (2d - 1) has residue field Q but its quotient ring Z[1/2] is unsupported
    with pytest.raises(UnsupportedRestriction):
        restrict(B2, prime_spec(Zd, [Zd.parse("2*d - 1")]))


def _entrywise(A, f, base):
    """(sc, table key) of A with each of its n^3 structure constants and its
    unit sent through f one by one; the key is that of the dense table built
    over base, as the engine builds the key of any table."""
    sc = tuple(tuple(tuple(f(c) for c in row) for row in plane) for plane in A.sc)
    unit = tuple(f(u) for u in A.unit)
    return sc, FiniteFreeAlgebra(A.name, base, A.basis_names, sc, unit, validate=False).table_key


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_specialize_and_restrict_map_every_constant(corpus, registry_points, key):
    """The maps that send only the nonzero constants through the homomorphism
    give the tables of the entrywise map, at the generic point and at every
    registry prime."""
    A = corpus[key]
    for p in registry_points(key, A):
        F = specialize(A, p)
        sc, table_key = _entrywise(A, lambda c: reduce_elem(c, p), F.field)
        assert F.sc == sc and F.table_key == table_key, p.short_str()
        assert hash(F.table_key) == hash(table_key)
        if p.is_generic:
            continue
        R = restrict(A, p)
        _, push = quotient_chain(A.ring, p.generators)
        sc, table_key = _entrywise(A, push, R.ring)
        assert R.sc == sc and R.table_key == table_key, p.short_str()
        assert R.trace_vector == (None if A.trace_vector is None
                                  else tuple(push(t) for t in A.trace_vector))


def _with_constant(table, ijk, c):
    """table's dense sc with the constant at ijk replaced by c."""
    sc = [[list(r) for r in plane] for plane in table.sc]
    i, j, k = ijk
    sc[i][j][k] = c
    return tuple(tuple(tuple(r) for r in plane) for plane in sc)


@pytest.mark.parametrize("key, prime", [("ZS3", 3), ("B2_Z", 2), ("TL3_Q", None), ("ZC2", 5)])
def test_table_keys_are_equal_exactly_when_the_dense_tables_are(corpus, key, prime):
    """A mapped fiber carries only its terms and keys them; a table built
    from its dense constants has an equal key with an equal hash, and
    changing any one constant, the unit, the field, or any one part of the
    key changes the key."""
    A = corpus[key]
    p = generic_point(A.ring) if prime is None else prime_spec(A.ring, [A.ring.from_int(prime)])
    F = specialize(A, p)
    K, n = F.field, F.dim
    key_F = F.table_key
    assert "sc" not in vars(F)  # no dense table is built to key a fiber
    same = FiniteFreeAlgebra(A.name, K, A.basis_names, F.sc, F.unit, validate=False)
    assert same.table_key == key_F and hash(same.table_key) == hash(key_F)
    rng = random.Random(3)
    nonzero = [(i, j, k) for i in range(n) for j in range(n) for k, _ in F.terms[i][j]]
    zero = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
            if K.is_zero(F.sc[i][j][k])]
    for ijk in rng.sample(nonzero, 3) + rng.sample(zero, 3):
        c = F.sc[ijk[0]][ijk[1]][ijk[2]]
        for new in {K.add(c, K.one), K.zero} - {c}:
            changed = FiniteFreeAlgebra(A.name, K, A.basis_names, _with_constant(F, ijk, new),
                                        F.unit, validate=False)
            assert changed.table_key != key_F, ijk
    unit = list(F.unit)
    unit[0] = K.add(unit[0], K.one)
    assert FiniteFreeAlgebra(A.name, K, A.basis_names, F.sc, unit,
                             validate=False).table_key != key_F
    other = GFPrime(7) if K != GFPrime(7) else GFPrime(11)
    if all(isinstance(c, int) for plane in F.sc for r in plane for c in r):
        assert FiniteFreeAlgebra(A.name, other, A.basis_names, F.sc, F.unit,
                                 validate=False).table_key != key_F
    parts = (K, n, F.terms, F.unit)
    assert TableKey(*parts) == key_F
    terms = FiniteFreeAlgebra(A.name, K, A.basis_names, _with_constant(F, zero[0], K.one),
                              F.unit, validate=False).terms
    for at, part in enumerate((other, n + 1, terms, tuple(unit))):
        assert TableKey(*parts[:at], part, *parts[at + 1:]) != key_F, at


def test_restrict_specialize_compatibility(corpus):
    """A|p then (q/p) gives bit-identical structure constants to A at q."""
    B2 = corpus["B2_Z"]
    chains = [
        ([Zd.from_int(2)], [Zd.from_int(2), Zd.parse("d")]),
        ([Zd.from_int(2)], [Zd.from_int(2), Zd.parse("d^2 + d + 1")]),
        ([Zd.parse("d")], [Zd.from_int(5), Zd.parse("d")]),
        ([Zd.parse("d - 1")], [Zd.from_int(3), Zd.parse("d - 1")]),
    ]
    for p_gens, q_gens in chains:
        p = prime_spec(Zd, p_gens)
        q = prime_spec(Zd, q_gens)
        B = restrict(B2, p)
        qbar_gens = []
        for g in q_gens:
            from decompgen.primes import ring_quotient

            cur, maps = B2.ring, []
            for gen in p_gens:
                h = gen
                for m in maps:
                    h = m(h)
                if not h.is_zero():
                    cur, m = ring_quotient(cur, h)
                    maps.append(m)
            h = g
            for m in maps:
                h = m(h)
            if not h.is_zero():
                qbar_gens.append(h)
        qbar = prime_spec(B.ring, qbar_gens)
        two_step = specialize(B, qbar)
        one_step = specialize(B2, q)
        assert two_step.field == one_step.field
        assert two_step.sc == one_step.sc
        assert two_step.unit == one_step.unit
        # equal tables share one analysis across the algebra's family
        assert is_split(B.generic_fiber())[1] is is_split(specialize(B2, p))[1]
        assert is_split(two_step)[1] is is_split(one_step)[1]


def test_left_regular_matrices(corpus):
    C2 = corpus["ZC2"]
    G = C2.generic_fiber()
    ident = G.left_regular_matrix(list(G.unit))
    assert ident == ident.mul(ident)
    s = G.basis_vector(1)
    Ls = G.left_regular_matrix(s)
    from fractions import Fraction

    assert Ls.rows == [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    # L(x)L(y) = L(xy) on random-ish vectors
    B2 = corpus["B2_Q"].generic_fiber()
    x = [B2.field.from_int(k) for k in (1, 2, 3)]
    y = [B2.field.from_int(k) for k in (-1, 0, 2)]
    assert B2.left_regular_matrix(x).mul(B2.left_regular_matrix(y)) == \
        B2.left_regular_matrix(vec_mul(B2, x, y))


def test_ideal_closure_and_quotient(corpus):
    B2 = corpus["B2_Q"]
    pd = prime_spec(Qd, [Qd.parse("d")])
    F = specialize(B2, pd)
    # u spans a one-dimensional two-sided ideal at d = 0
    u = F.basis_vector(0)
    ideal = ideal_closure(F, [u])
    assert ideal.dim == 1
    again = ideal_closure(F, [list(r) for r in ideal.rows])
    assert again == ideal
    assert nilpotency_index(F, ideal) == 2
    quot = quotient_algebra(F, ideal)
    assert quot.dim == 2
    whole = ideal_closure(F, [F.basis_vector(1)])  # the unit diagram generates all
    assert whole.dim == 3
    assert nilpotency_index(F, whole) is None
    with pytest.raises(UnitInIdeal):
        quotient_algebra(F, whole)
    zero = ideal_closure(F, [])
    assert zero.dim == 0
    assert nilpotency_index(F, zero) == 1
    assert quotient_algebra(F, zero).sc == F.sc


def test_ideal_closure_over_z(corpus):
    UT = corpus["UT2_Z"]
    # ideal closure runs on a fiber: over Z it is refused, and in the
    # generic fiber the strict upper triangular unit spans a two-sided ideal
    with pytest.raises(UnsupportedRing, match="runs on a fiber"):
        ideal_closure(UT, [UT.basis_vector(1)])
    fiber = UT.generic_fiber()
    e01 = fiber.basis_vector(1)  # basis order: e00, e01, e11
    lat = ideal_closure(fiber, [e01])
    assert lat.dim == 1
    assert lat == span_subspace(fiber, [e01])


def test_one_sided_products_equal_products_with_basis_vectors(corpus):
    """one_sided_products(v), read off the table's terms, equals
    vec_mul(b_i, v) and vec_mul(v, b_i) for seeded v: on every registry
    table over its ring and on its generic fiber, and on B3 over Z[d]'s
    fibers at (2) and (3)."""
    B3 = brauer_algebra(3, Zd)
    tables = [t for _, A in sorted(corpus.items()) for t in (A, A.generic_fiber())]
    tables += [specialize(B3, prime_spec(Zd, [Zd.from_int(p)])) for p in (2, 3)]
    rng = random.Random(29)
    for table in tables:
        if table.field is None:
            R = table.ring
            scalars = [R.from_int(k) for k in range(-2, 3)] + [R.var(x) for x in R.varnames]
        else:
            F = table.field
            scalars = [F.from_int(k) for k in range(-2, 3)]
            scalars += [F.var_scalar(i) for i in range(getattr(F, "nv", 0))]
        for _ in range(3):
            v = [rng.choice(scalars) for _ in range(table.dim)]
            want = []
            for i in range(table.dim):
                b = table.basis_vector(i)
                want += [("left", vec_mul(table, b, v)), ("right", vec_mul(table, v, b))]
            assert list(one_sided_products(table, v)) == want, table.name


def test_quotient_dimension_additivity(corpus):
    S3 = corpus["ZS3"]
    p3 = prime_spec(Z, [Z.from_int(3)])
    F = specialize(S3, p3)
    from decompgen.modules import radical

    rad = radical(F)
    quot = quotient_algebra(F, rad)
    assert quot.dim + rad.dim == F.dim


def test_dual_numbers_nilpotency():
    D = dual_numbers(Z)
    F = D.generic_fiber()
    eps = F.basis_vector(1)
    lat = ideal_closure(F, [eps])
    assert nilpotency_index(F, lat) == 2


def _product_nilpotency_index(fiber, lattice):
    """nilpotency_index by products with vec_mul, the reference for
    `test_nilpotency_index_matches_the_product_reference`: lattice^(k+1) is
    the span of the x·y with x a row of lattice^k and y one of the lattice."""
    if lattice.dim == 0:
        return 1
    power, n = lattice, 1
    while True:
        nxt = span_subspace(fiber, [vec_mul(fiber, list(x), list(y))
                                    for x in power.rows for y in lattice.rows])
        n += 1
        if nxt.dim == 0:
            return n
        if nxt.dim == power.dim:
            return None
        power = nxt


# Z[d][t]/((t - d)^2): each fiber over (0) and (p) has the radical spanned
# by t - d
NIL_D = """algebra NIL_D
ring Z[d]
basis one t
unit 1, 0
mul 0 0 0 1
mul 0 1 1 1
mul 1 0 1 1
mul 1 1 0 -d^2
mul 1 1 1 2*d
"""


def test_nilpotency_index_matches_the_product_reference(corpus):
    """nilpotency_index, which applies the left regular matrix of each
    lattice row, equals the vec_mul reference on seeded subspaces, on
    seeded subspaces of the radical and on the ideal closures of seeded
    elements and of seeded radical elements, over Q, GF(7), GF(4), Q(d) and
    GF(3)(d); over each, some answer is None and some is an N > 1."""
    nil, p3 = load_algebra(NIL_D), prime_spec(Zd, [Zd.from_int(3)])
    cases = {
        "Q": [corpus["UT2_Z"].generic_fiber(), corpus["ZS3"].generic_fiber()],
        "GF(7)": [specialize(corpus[k], prime_spec(Z, [Z.from_int(7)]))
                  for k in ("UT2_Z", "Dual_Z")],
        "GF(2^2)": [specialize(corpus["B2_Z"], prime_spec(Zd, [Zd.from_int(2),
                                                          Zd.parse("d^2 + d + 1")]))],
        "Q(d)": [corpus["B2_Z"].generic_fiber(), nil.generic_fiber()],
        "GF(3)(d)": [specialize(corpus["B2_Z"], p3), specialize(nil, p3)],
    }
    rng = random.Random(26)
    for name, fibers in cases.items():
        answers = set()
        for fiber in fibers:
            F = fiber.field
            assert repr(F) == name
            rad = radical(fiber)

            def element(rows):
                v = [F.zero] * fiber.dim
                for r in rows:
                    c = F.from_int(rng.randint(-2, 2))
                    v = [F.add(a, F.mul(c, b)) for a, b in zip(v, r)]
                return v

            basis = [fiber.basis_vector(i) for i in range(fiber.dim)]
            lattices = []
            for _ in range(4):
                k = rng.randint(1, fiber.dim)
                lattices.append(span_subspace(fiber, [element(basis) for _ in range(k)]))
                lattices.append(ideal_closure(fiber, [element(basis)]))
                if rad.dim:
                    k = rng.randint(1, rad.dim)
                    lattices.append(span_subspace(fiber, [element(rad.rows) for _ in range(k)]))
                    lattices.append(ideal_closure(fiber, [element(rad.rows)]))
            for lat in lattices:
                got = nilpotency_index(fiber, lat)
                assert got == _product_nilpotency_index(fiber, lat), (fiber, lat.rows)
                answers.add(got)
        assert None in answers and any(a and a > 1 for a in answers), name


def _one_term_closure(terms, start):
    """The indices reached from start by one-term products b_i b_j = c b_k,
    by passes over every reached pair until a pass adds nothing."""
    reached = set(start)
    while True:
        new = {terms[i][j][0][0] for i in reached for j in reached
               if len(terms[i][j]) == 1} - reached
        if not new:
            return reached
        reached |= new


def _middles_of_validation(monkeypatch, A):
    """The middles of every triple scan A's validation runs."""
    scans, scan = [], algebra._first_failure

    def spy(D, terms, middles, products):
        scans.append(list(middles))
        return scan(D, terms, middles, products)

    monkeypatch.setattr(algebra, "_first_failure", spy)
    A._validate()
    return scans


@pytest.mark.parametrize("build, middles", [
    (lambda: brauer_algebra(3, Zd), [6, 8, 10]),
    (lambda: REGISTRY["TL4_Q"].algebra(), [4, 8, 9]),
    (lambda: REGISTRY["ZS3"].algebra(), [1, 2]),
], ids=["B3_Z", "TL4_Q", "ZS3"])
def test_light_test_scans_few_middles_that_generate(monkeypatch, build, middles):
    """A valid table's associativity is proved on the triples (b_i, g, b_k)
    with g in a generating set G of at most 3 indices, 3 * 15^2 = 675
    triples for B3 where the full scan takes 15^3; G's closure under
    one-term products, with the unit's basis index, reaches every index."""
    A = build()
    (scan,) = _middles_of_validation(monkeypatch, A)
    assert scan == middles and len(scan) <= 3
    u = A.unit.index(A.ring.one())
    assert _one_term_closure(A.terms, scan + [u]) == set(range(A.dim))


def test_light_test_on_products_of_several_terms(monkeypatch):
    """Hecke S3's products T_s T_w with sw shorter than w have two terms and
    reach nothing: T_1 is in the nucleus as the unit, and T_s1, T_s2 reach
    the rest through one-term products.  Every change of a constant of a
    product of several terms is caught and named by the reference triple."""
    R = parse_ring("Z[q]")
    H = hecke_s3(R)
    assert _middles_of_validation(monkeypatch, H) == [[1, 2]]
    several = [(i, j, k) for i in range(6) for j in range(6) if len(H.terms[i][j]) > 1
               for k, _ in H.terms[i][j]]
    assert len(several) == 52
    for i, j, k in several:
        sc = _with_constant(H, (i, j, k), H.sc[i][j][k] + R.one())
        a, b, c = _first_failing_triple(
            FiniteFreeAlgebra("H3", R, H.basis_names, sc, H.unit, validate=False))
        with pytest.raises(NotAssociative,
                           match=rf"^\(b{a} b{b}\) b{c} != b{a} \(b{b} b{c}\) in H3$"):
            FiniteFreeAlgebra("H3", R, H.basis_names, sc, H.unit)


# 1, a, b, c with a^2 = b + c, b^2 = c^2 = a and bc = cb = -a: a and the unit
# lie in the middle nucleus, and associativity fails only at the middles b
# and c, which no one-term product reaches
SUPPORT_ONLY = """algebra support
ring Z
basis one a b c
unit 1, 0, 0, 0
mul 0 0 0 1
mul 0 1 1 1
mul 0 2 2 1
mul 0 3 3 1
mul 1 0 1 1
mul 2 0 2 1
mul 3 0 3 1
mul 1 1 2 1
mul 1 1 3 1
mul 2 2 1 1
mul 3 3 1 1
mul 2 3 1 -1
mul 3 2 1 -1
"""


def test_a_product_of_several_terms_reaches_no_middle():
    """The table fails only at triples whose middle the two-term product a^2
    = b + c alone reaches: a closure that followed its support would scan
    the middle a alone and pass the table."""
    bad = load_algebra(SUPPORT_ONLY, validate=False)
    assert _first_failing_triple(bad) == (1, 2, 2)
    with pytest.raises(NotAssociative, match=r"^\(b1 b2\) b2 != b1 \(b2 b2\) in support$"):
        load_algebra(SUPPORT_ONLY)


def test_a_unit_of_several_terms():
    """Q x Q on its idempotents e1, e2 has the unit e1 + e2, no basis vector:
    it validates, and a change of any one constant breaks the unit law,
    first at the lower of the two indices of the changed product."""
    Q = parse_ring("Q")
    one, zero = Q.one(), Q.zero()
    sc = [[[zero] * 2 for _ in range(2)] for _ in range(2)]
    sc[0][0][0] = sc[1][1][1] = one
    sc = tuple(tuple(tuple(r) for r in plane) for plane in sc)
    A = FiniteFreeAlgebra("QxQ", Q, ("e1", "e2"), sc, (one, one))
    for i, j, k in product(range(2), repeat=3):
        changed = _with_constant(A, (i, j, k), sc[i][j][k] + one)
        with pytest.raises(NoUnit, match=rf"^unit law fails on basis element e{min(i, j) + 1}$"):
            FiniteFreeAlgebra("QxQ", Q, A.basis_names, changed, A.unit)
