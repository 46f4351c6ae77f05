"""MeatAxe-style chopping, radicals, splitting tests."""

import random
import types

import pytest

from decompgen.algebra import specialize
from decompgen.corpus import REGISTRY
from decompgen import polyops as P
from decompgen.errors import ChopBudgetExceeded, Inconsistent
from decompgen.factor import factor_pieces
from decompgen.fields import GFPrime
from decompgen.linalg import (
    Matrix,
    char_poly,
    det,
    eval_poly_at_matrix,
    kernel_basis,
    rref_rows,
    solve,
)
from decompgen import modules
from decompgen.modules import (
    SimpleModule,
    algebra_image_rank,
    chop,
    hom_dim,
    is_split,
    radical,
    regular_module,
    spin,
    submodule,
)
from decompgen.primes import prime_spec
from decompgen.rings import parse_ring
from oracles import (
    contains_vector,
    is_isomorphic,
    matrix_add,
    quotient_algebra,
    small_fiber_family,
    validate_module,
    zeros,
)

Z = parse_ring("Z")
Qd = parse_ring("Q[d]")


def factors_profile(fiber):
    return [(s.dim, m) for s, m in chop(regular_module(fiber))]


def test_chop_examples(corpus):
    C2 = corpus["ZC2"]
    assert factors_profile(C2.generic_fiber()) == [(1, 1), (1, 1)]
    F2C2 = specialize(C2, prime_spec(Z, [Z.from_int(2)]))
    assert factors_profile(F2C2) == [(1, 2)]
    M2 = corpus["Mat2_Z"]
    assert factors_profile(M2.generic_fiber()) == [(2, 2)]


def test_chop_validates_modules(corpus):
    F = corpus["ZC2"].generic_fiber()
    validate_module(regular_module(F))


def test_module_validation_raises_inconsistent(corpus):
    """A module whose unit is not the identity, or whose action breaks the
    table, is inconsistent data, not a radical fault."""
    from decompgen.modules import AlgebraModule

    F = corpus["ZC2"].generic_fiber()
    K = F.field
    one, two = Matrix(K, [[K.one]]), Matrix(K, [[K.from_int(2)]])
    assert F.unit == (K.one, K.zero)
    with pytest.raises(Inconsistent, match="unit does not act as the identity"):
        validate_module(AlgebraModule(F, [two, one]))
    # g^2 = 1 in the group algebra, but g acts as 2
    with pytest.raises(Inconsistent, match="action does not respect the table"):
        validate_module(AlgebraModule(F, [one, two]))
    validate_module(AlgebraModule(F, [one, Matrix(K, [[K.from_int(-1)]])]))


def test_chop_multiset_is_seed_independent(corpus, monkeypatch):
    """chop draws its random elements from one fixed generator; with that
    generator seeded with s = 1, ..., 5 instead, the multiset of simples is
    the same."""
    fibers = [
        corpus["ZS3"].generic_fiber(),
        specialize(corpus["ZS3"], prime_spec(Z, [Z.from_int(2)])),
        specialize(corpus["ZS3"], prime_spec(Z, [Z.from_int(3)])),
        corpus["B2_Q"].generic_fiber(),
        specialize(corpus["B2_Q"], prime_spec(Qd, [Qd.parse("d")])),
        corpus["TL3_Q"].generic_fiber(),
    ]
    for fiber in fibers:
        profiles = set()
        for s in range(1, 6):
            monkeypatch.setattr(modules, "random",
                                types.SimpleNamespace(Random=lambda _, s=s: random.Random(s)))
            profiles.add(tuple(factors_profile(fiber)))
        assert len(profiles) == 1


def test_is_isomorphic_on_conjugated_bases(corpus):
    """Two presentations of the same simple in different bases agree."""
    S3 = corpus["ZS3"]
    F = specialize(S3, prime_spec(Z, [Z.from_int(7)]))
    factors = chop(regular_module(F))
    two_dim = next(s for s, _ in factors if s.dim == 2)
    F7 = F.field
    rng = random.Random(5)
    while True:
        S = [[rng.randrange(7) for _ in range(2)] for _ in range(2)]
        sm = Matrix(F7, S)
        if not F7.is_zero(det(sm)):
            break
    from decompgen.linalg import solve

    sinv_cols = [solve(sm, [F7.one if i == j else F7.zero for i in range(2)]) for j in range(2)]
    sinv = Matrix(F7, [[sinv_cols[j][i] for j in range(2)] for i in range(2)])
    conj_action = [sm.mul(m).mul(sinv) for m in two_dim.module.action]
    from decompgen.modules import AlgebraModule

    other = AlgebraModule(F, conj_action)
    other_simple = SimpleModule(other, other.char_polys(), algebra_image_rank(other))
    assert is_isomorphic(two_dim, other_simple, cross_validate=True)
    triv = next(s for s, _ in factors if s.dim == 1)
    assert not is_isomorphic(two_dim, triv)
    assert is_isomorphic(triv, triv)


def test_radical_examples(corpus):
    M2 = corpus["Mat2_Z"]
    assert radical(M2.generic_fiber()).dim == 0
    UT = corpus["UT2_Z"]
    rad = radical(UT.generic_fiber())
    assert rad.dim == 1
    # basis order e00, e01, e11: the strict upper unit spans the radical
    from fractions import Fraction

    assert rad.rows == ((Fraction(0), Fraction(1), Fraction(0)),)
    B2 = corpus["B2_Q"]
    rad = radical(specialize(B2, prime_spec(Qd, [Qd.parse("d")])))
    assert rad.dim == 1


def test_radical_is_idempotent(corpus):
    for key, prime in [("ZS3", 2), ("ZS3", 3), ("ZC2", 2)]:
        F = specialize(corpus[key], prime_spec(Z, [Z.from_int(prime)]))
        rad = radical(F)
        quot = quotient_algebra(F, rad)
        assert radical(quot).dim == 0


def test_radical_is_a_two_sided_ideal(corpus, registry_points):
    """The radical is a two-sided ideal by construction, so the engine checks
    only that it is nilpotent (modules._assert_radical): b_i·v and v·b_i lie
    in it for every basis element b_i and radical row v, at the registry
    points and at B3 over Z[d]'s generic point, (2), (3), (3, d) and
    (d - 1)."""
    from decompgen.corpus import brauer_algebra
    from decompgen.primes import parse_prime

    B3 = brauer_algebra(3, parse_ring("Z[d]"))
    fibers = [specialize(A, p) for key, A in sorted(corpus.items())
              for p in registry_points(key, A)]
    fibers += [specialize(B3, parse_prime(p, B3.ring))
               for p in ("generic", "p=2", "p=3", "gen=[3, d]", "gen=[d - 1]")]
    nonzero = 0
    for fiber in fibers:
        rad = radical(fiber)
        nonzero += rad.dim > 0
        for v in rad.rows:
            for i in range(fiber.dim):
                b = fiber.basis_vector(i)
                assert contains_vector(rad, fiber.vec_mul(b, list(v))), (fiber, v, i)
                assert contains_vector(rad, fiber.vec_mul(list(v), b)), (fiber, v, i)
    assert nonzero >= 10


def test_radical_rows_are_canonical(corpus, registry_points):
    """radical takes the kernel basis as its SubLattice with no second
    echelon form, so its rows must already be their own reduced echelon
    form: at the registry points and at B3 over Z[d]'s generic point, (2),
    (3), (3, d) and (d - 1)."""
    from decompgen.algebra import span_subspace
    from decompgen.corpus import brauer_algebra
    from decompgen.primes import parse_prime

    B3 = brauer_algebra(3, parse_ring("Z[d]"))
    fibers = [specialize(A, p) for key, A in sorted(corpus.items())
              for p in registry_points(key, A)]
    fibers += [specialize(B3, parse_prime(p, B3.ring))
               for p in ("generic", "p=2", "p=3", "gen=[3, d]", "gen=[d - 1]")]
    dims = set()
    for fiber in fibers:
        rad = radical(fiber)
        dims.add(0 < rad.dim < fiber.dim)
        assert rad.rows == span_subspace(fiber, rad.rows).rows, fiber
    assert dims == {False, True}


def test_split_checks(corpus):
    ok, wd = is_split(specialize(corpus["ZC2"], prime_spec(Z, [Z.from_int(2)])))
    assert ok and wd.endo_dims == [1]
    ok, wd = is_split(corpus["ZC3"].generic_fiber())
    assert not ok and sorted(wd.endo_dims) == [1, 2]
    ok, wd = is_split(corpus["B2_Q"].generic_fiber())
    assert ok and [s.dim for s in wd.simples] == [1, 1, 1]


def test_wedderburn_identities(corpus):
    cases = [
        ("ZS3", []), ("ZS3", [2]), ("ZS3", [3]), ("ZS3", [5]),
        ("ZC2", []), ("ZC2", [2]),
        ("Mat2_Z", []), ("Mat2_Z", [2]),
        ("UT2_Z", []), ("UT2_Z", [3]),
        ("Dual_Z", [2]),
    ]
    for key, gens in cases:
        A = corpus[key]
        p = prime_spec(Z, [Z.from_int(g) for g in gens])
        ok, wd = is_split(specialize(A, p))
        n = A.dim
        assert wd.radical_dim + sum(
            m * s.dim for s, m in zip(wd.simples, wd.multiplicities)) == n
        # Jordan-Hoelder multiplicities of the regular module always fill it
        assert sum(m * s.dim for s, m in zip(wd.simples, wd.jh_multiplicities)) == n
        if ok:
            assert sum(s.dim**2 for s in wd.simples) == n - wd.radical_dim


def test_burnside_rank_certificate(corpus):
    M2 = corpus["Mat2_Z"].generic_fiber()
    factors = chop(regular_module(M2))
    simple = factors[0][0]
    assert algebra_image_rank(simple.module) == 4
    # the full regular module of a 4-dim algebra has image rank 4 < 16
    assert algebra_image_rank(regular_module(M2)) == 4


def test_hom_dim(corpus):
    F = specialize(corpus["ZS3"], prime_spec(Z, [Z.from_int(7)]))
    factors = chop(regular_module(F))
    simples = [s for s, _ in factors]
    for i, s in enumerate(simples):
        for j, t in enumerate(simples):
            expected = 1 if i == j else 0
            assert hom_dim(s.module, t.module) == expected


def enumerate_subspaces(p, n):
    """All subspaces of GF(p)^n as canonical echelon row lists."""
    from itertools import combinations, product

    F = GFPrime(p)
    out = [[]]
    for r in range(1, n + 1):
        for pivots in combinations(range(n), r):
            free_positions = []
            for i, pj in enumerate(pivots):
                for col in range(pj + 1, n):
                    if col not in pivots:
                        free_positions.append((i, col))
            for values in product(range(p), repeat=len(free_positions)):
                rows = [[0] * n for _ in range(r)]
                for i, pj in enumerate(pivots):
                    rows[i][pj] = 1
                for (i, col), v in zip(free_positions, values):
                    rows[i][col] = v
                out.append(rows)
    return out


def brute_force_radical(fiber):
    """Largest nilpotent two-sided ideal by exhaustive subspace search,
    as a canonical SubLattice."""
    from decompgen.algebra import nilpotency_index, span_subspace

    F = fiber.field
    n = fiber.dim
    best = span_subspace(fiber, [])
    for rows in enumerate_subspaces(F.p, n):
        if len(rows) <= best.dim:
            continue
        lat = span_subspace(fiber, [[F.from_int(c) for c in row] for row in rows])
        stable = True
        for v in lat.rows:
            for i in range(n):
                b = fiber.basis_vector(i)
                if not contains_vector(lat, fiber.vec_mul(b, list(v))) or \
                   not contains_vector(lat, fiber.vec_mul(list(v), b)):
                    stable = False
                    break
            if not stable:
                break
        if not stable:
            continue
        if nilpotency_index(fiber, lat) is None:
            continue
        best = lat
    return best


@pytest.mark.parametrize("p", [2, 3])
def test_radical_against_exhaustive_search_small(p):
    """The radical is the unique maximal nilpotent ideal: equality as
    subspaces, not just of dimensions."""
    fibers = [f for f in small_fiber_family(p, 8, seed=1) if f.dim <= 4]
    assert fibers
    for fiber in fibers:
        rad = radical(fiber)
        assert rad == brute_force_radical(fiber)


def test_non_split_simple_over_function_field_certifies():
    """K[t]/(t^2 - d) is a field over K = Q(d): the irreducible quadratic
    factor of a characteristic polynomial certifies its regular module
    simple by Norton's test, and End has dimension 2."""
    from decompgen.algebra import FiniteFreeAlgebra

    K = Qd.fraction_field()
    d = K.var_scalar(0)
    z, o = K.zero, K.one
    # the quadratic extension K[t]/(t^2 - d) as a 2-dim K-algebra
    sc = (((o, z), (z, o)), ((z, o), (d, z)))
    F = FiniteFreeAlgebra("quad-ext", K, ("one", "t"), sc, (o, z))
    assert factors_profile(F) == [(2, 1)]
    split, data = is_split(F)
    assert split is False and data.endo_dims == [2]


def test_qc3_chops_fine_over_q():
    QC3 = REGISTRY["ZC3"].algebra().generic_fiber()
    factors = chop(regular_module(QC3))
    assert [(s.dim, mult) for s, mult in factors] == [(1, 1), (2, 1)]


def test_equal_fibers_share_one_memo_entry():
    """Two specializations at one prime are distinct objects with equal
    tables; the memo keys on content, so both get the same result object."""
    A = REGISTRY["ZS3"].algebra()
    p = prime_spec(Z, [Z.from_int(3)])
    F1, F2 = specialize(A, p), specialize(A, p)
    assert F1 is not F2 and F1.table_key is not F2.table_key
    assert F1.table_key == F2.table_key
    assert is_split(F1) is is_split(F2)


def test_table_keys_with_colliding_hashes_stay_apart():
    A = REGISTRY["ZS3"].algebra()
    k1 = specialize(A, prime_spec(Z, [Z.from_int(2)])).table_key
    k2 = specialize(A, prime_spec(Z, [Z.from_int(3)])).table_key
    k2._hash = k1._hash
    assert hash(k1) == hash(k2) and k1 != k2
    assert len({k1: 1, k2: 2}) == 2


def _submodule_by_solve(module, rows):
    """Action matrices on span(rows), each column solved for in the rows."""
    F = module.fiber.field
    basis_t = Matrix(F, rows).transpose()
    acts = []
    for m in module.action:
        images = [m.mul(Matrix(F, [[c] for c in row])) for row in rows]
        cols = [solve(basis_t, [r[0] for r in image.rows]) for image in images]
        acts.append([list(r) for r in zip(*cols)])
    return acts


def _quotient_by_solve(module, rows):
    """Action matrices on the quotient by span(rows), in the basis of the unit
    vectors off the pivots: each image is solved for in rows + that basis and
    its coordinates on the complement kept."""
    F = module.fiber.field
    d = module.dim
    pivots = [next(k for k, c in enumerate(r) if not F.is_zero(c)) for r in rows]
    units = [[F.one if k == j else F.zero for k in range(d)] for j in range(d)]
    free = [j for j in range(d) if j not in pivots]
    basis_t = Matrix(F, list(rows) + [units[j] for j in free]).transpose()
    acts = []
    for m in module.action:
        cols = [solve(basis_t, [r[j] for r in m.rows])[len(rows):] for j in free]
        acts.append([list(r) for r in zip(*cols)])
    return acts


def _act_element_by_scale_add(module, coeffs):
    """sum_i coeffs[i] ρ(b_i) by whole-matrix scales and sums."""
    F = module.fiber.field
    out = zeros(F, module.dim, module.dim)
    for c, m in zip(coeffs, module.action):
        out = matrix_add(out, m.scale(c))
    return out.rows


# B3 over Z[d] at points whose fibers run over Q(d), GF(p)(d), GF(3) and Q
_B3_POINTS = ("generic", "p=2", "p=3", "gen=[3, d]", "gen=[d - 1]")


@pytest.mark.parametrize("key", sorted(k for k, e in REGISTRY.items() if e.facts["generic_split"])
                         + [f"B3@{p}" for p in _B3_POINTS])
def test_chop_subquotients_match_solve_references(corpus, key, monkeypatch):
    """Every submodule and quotient the chop of a regular module builds
    equals the one found by solving linear systems, and every random
    element it draws acts as the sum of scaled action matrices: the split
    generic fibers of the registry, and B3 over Z[d] at the generic point,
    (2), (3), (3, d) and (d - 1)."""
    from decompgen.corpus import brauer_algebra
    from decompgen.primes import parse_prime

    seen, elements = [], []
    real_act = modules.AlgebraModule.act_element

    def recording_act(module, coeffs):
        out = real_act(module, coeffs)
        elements.append((out.rows, _act_element_by_scale_add(module, coeffs)))
        return out

    def recording(build, reference):
        def wrapper(module, rows):
            out = build(module, rows)
            seen.append(([m.rows for m in out.action], reference(module, rows)))
            return out
        return wrapper

    monkeypatch.setattr(modules, "submodule",
                        recording(modules.submodule, _submodule_by_solve))
    monkeypatch.setattr(modules, "quotient_module",
                        recording(modules.quotient_module, _quotient_by_solve))
    monkeypatch.setattr(modules.AlgebraModule, "act_element", recording_act)
    if key in corpus:
        fiber = corpus[key].generic_fiber()
    else:
        B3 = brauer_algebra(3, parse_ring("Z[d]"))
        fiber = specialize(B3, parse_prime(key.split("@")[1], B3.ring))
    chop(regular_module(fiber))
    assert seen
    for got, want in seen + elements:
        assert got == want
    if key not in corpus:
        assert elements  # every B3 point reaches the random attempts


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_regular_module_is_read_off_the_terms(corpus, registry_points, key):
    """ρ(b_i), read off the table's terms column by column, is the left
    regular matrix of b_i: at the generic point and at the first registry
    prime, where the registry names one, of every registry algebra."""
    A = corpus[key]
    points = list(registry_points(key, A))
    assert points[0].is_generic
    for p in points[:2]:
        fiber = specialize(A, p)
        action = regular_module(fiber).action
        assert len(action) == fiber.dim
        for i, m in enumerate(action):
            want = fiber.left_regular_matrix(fiber.basis_vector(i))
            assert m == want, (key, p.short_str(), i)
            assert [list(col) for col in m.columns()] == want.columns()


def test_submodule_of_an_unstable_subspace_raises():
    """The span of one group element of Q S3 is no submodule: left
    multiplication by any other element moves it out."""
    fiber = REGISTRY["ZS3"].algebra().generic_fiber()
    module = regular_module(fiber)
    for i in range(fiber.dim):
        with pytest.raises(Inconsistent):
            submodule(module, [fiber.basis_vector(i)])
    whole = [fiber.basis_vector(i) for i in range(fiber.dim)]
    assert [m.rows for m in submodule(module, whole).action] == \
        [m.rows for m in module.action]


# --- spin and the table map -----------------------------------------------------------

def _spin_by_closure(module, vectors):
    """The submodule generated by the vectors as a queue closure: every
    vector that raises the rank of the rows so far is kept and pushed
    through every action matrix by a matrix product, until the rows fill
    the module or nothing new appears; then one reduced echelon form.  It
    shares no reduction with `spin`."""
    F = module.fiber.field
    rows = []
    queue = [list(v) for v in vectors]
    while queue and len(rows) < module.dim:
        v = queue.pop()
        if len(rref_rows(F, rows + [v])[0]) > len(rows):
            rows.append(v)
            queue.extend([r[0] for r in m.mul(Matrix(F, [[c] for c in v])).rows]
                         for m in module.action)
    return rref_rows(F, rows)[0] if rows else []


def test_spin_matches_the_closure_reference(monkeypatch):
    """Every spin the chop makes, on a module and on its transpose, is the
    submodule the queue closure finds, and so is every span of a unit
    vector that the two unit sweeps read off the action (a sweep that runs
    to its end spans each e_j once), and so are the rows of every split
    the transpose side gives, the annihilator of a proper transpose span,
    which takes no spin: the chops of the registry's
    generic fibers and of B3 over Z[d] at the generic point, (2), (3),
    (3, d) and (d - 1), where the transpose splits."""
    from decompgen.corpus import brauer_algebra
    from decompgen.primes import parse_prime

    calls, transposes, splits, units, swept = [], [], [], [], []
    real_spin, real_transpose = modules.spin, modules.AlgebraModule.transpose_module
    real_split, real_units = modules._split_or_certify, modules.unit_spins

    def recording_spin(module, vectors):
        vectors = [list(v) for v in vectors]
        calls.append((module, vectors, real_spin(module, vectors)))
        return calls[-1][2]

    def recording_units(module, transpose):
        # the reference spins e_j on a transpose built here: the sweeps build none
        side = real_transpose(module) if transpose else module
        F = module.fiber.field
        spans = 0
        for j, w in enumerate(real_units(module, transpose)):
            e = [F.one if k == j else F.zero for k in range(module.dim)]
            calls.append((side, [e], w))
            units.append((transpose, 0 < len(w) < module.dim))
            spans += 1
            yield w
        # Norton's test reads a kernel of dimension d as proved full by the sweeps
        swept.append(spans == module.dim)

    def recording_transpose(module):
        transposes.append(real_transpose(module))
        return transposes[-1]

    def recording_split(module, rng):
        verdict, data = real_split(module, rng)
        if verdict == "split":
            splits.append((module, data))
        return verdict, data

    monkeypatch.setattr(modules, "spin", recording_spin)
    monkeypatch.setattr(modules, "unit_spins", recording_units)
    monkeypatch.setattr(modules.AlgebraModule, "transpose_module", recording_transpose)
    monkeypatch.setattr(modules, "_split_or_certify", recording_split)
    B3 = brauer_algebra(3, parse_ring("Z[d]"))
    fibers = [e.algebra().generic_fiber() for _, e in sorted(REGISTRY.items())]
    fibers += [specialize(B3, parse_prime(p, B3.ring))
               for p in ("generic", "p=2", "p=3", "gen=[3, d]", "gen=[d - 1]")]
    for fiber in fibers:
        chop(regular_module(fiber))
    assert any(0 < len(w) < m.dim for m, _, w in calls)  # proper spans
    assert {(False, True), (True, True)} <= set(units)  # both unit sweeps split
    assert swept and all(swept)  # a sweep run to its end spun every e_j once
    assert all(len(vs) == 1 for _, vs, _ in calls)  # an annihilator is not spun
    assert any(any(m is t for t in transposes) for m, _, _ in calls)
    for module, vectors, got in calls:
        assert got == _spin_by_closure(module, vectors), module
    # a split whose rows no spin of its module returned came from the transpose
    annihilators = [(module, rows) for module, rows in splits
                    if not any(m is module and w == rows for m, _, w in calls)]
    assert annihilators
    for module, rows in annihilators:
        assert rows == _spin_by_closure(module, rows), module


def _rref_image_rank(module):
    """The image rank as the length of one reduced echelon form of the
    flattened action matrices."""
    F = module.fiber.field
    return len(rref_rows(F, [[c for row in m.rows for c in row] for m in module.action])[0])


def _parent_split_or_certify(module, rng):
    """The chop's node decision in its earlier order, the reference for
    `test_chop_decisions_match_the_parent_order`: the unit sweep first, the
    image rank after it on every node, taken by a reduced echelon form, and
    the annihilator of a proper transpose span spun."""
    F = module.fiber.field
    d = module.dim
    if d == 1:
        return ("simple", 1)
    n = module.fiber.dim

    def split(side, vectors):
        for v in vectors:
            w = spin(side, [v])
            if 0 < len(w) < d:
                return w if side is module else spin(module, kernel_basis(Matrix(F, w)))
        return None

    units = Matrix.identity(F, d).rows
    w = split(module, units)
    if w:
        return ("split", w)
    rank = _rref_image_rank(module)
    if rank == d * d:
        return ("simple", rank)
    transpose = module.transpose_module()
    w = split(transpose, units)
    if w:
        return ("split", w)
    for attempt in range(modules.CHOP_ATTEMPTS):
        window = 1 + attempt // 4
        coeffs = [F.from_int(rng.randint(-window, window)) for _ in range(n)]
        X = module.act_element(coeffs)
        chi = char_poly(X)
        pieces = factor_pieces(F, chi)
        pieces.sort(key=lambda t: P.udeg(t[0]))
        for f, is_irred in pieces:
            if not is_irred and P.udeg(f) == P.udeg(chi):
                continue
            N = eval_poly_at_matrix(F, f, X)
            ker = kernel_basis(N)
            if not ker:
                continue
            if len(ker) < d:
                w = split(module, ker) or split(transpose, kernel_basis(N.transpose()))
                if w:
                    return ("split", w)
            if is_irred and len(ker) == P.udeg(f):
                return ("simple", rank)
    raise ChopBudgetExceeded(f"no verdict for a dim-{d} module")


def test_chop_decisions_match_the_parent_order(corpus, registry_points, monkeypatch):
    """Every node of the chop gets the verdict, the rows or rank and the rng
    state that the unit-sweep-first order gives, at the registry points and
    at B3 over Z[d]'s generic point, (2), (3), (3, d) and (d - 1); a node
    with d^2 <= dim A that the rank certifies takes no spin, and a node with
    d^2 > dim A that splits takes no image rank."""
    from decompgen.corpus import brauer_algebra
    from decompgen.primes import parse_prime

    counts = {}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    real = modules._split_or_certify
    seen = set()

    def checked(module, rng):
        twin = random.Random()
        twin.setstate(rng.getstate())
        want = _parent_split_or_certify(module, twin)
        counts.update(spin=0, rank=0)
        got = real(module, rng)
        assert got == want and rng.getstate() == twin.getstate(), module
        d, n = module.dim, module.fiber.dim
        if got == ("simple", d * d) and 1 < d * d <= n:
            assert counts["spin"] == 0, module
            seen.add("certified by the rank")
        if got[0] == "split" and d * d > n:
            assert counts["rank"] == 0, module
            seen.add("split with d^2 > n")
        return got

    monkeypatch.setattr(modules, "spin", counting("spin", spin))
    monkeypatch.setattr(modules, "algebra_image_rank", counting("rank", algebra_image_rank))
    monkeypatch.setattr(modules, "_image_pivots", counting("rank", modules._image_pivots))
    monkeypatch.setattr(modules, "_split_or_certify", checked)
    B3 = brauer_algebra(3, parse_ring("Z[d]"))
    fibers = [specialize(A, p) for key, A in sorted(corpus.items())
              for p in registry_points(key, A)]
    fibers += [specialize(B3, parse_prime(p, B3.ring))
               for p in ("generic", "p=2", "p=3", "gen=[3, d]", "gen=[d - 1]")]
    for fiber in fibers:
        chop(regular_module(fiber))
    assert seen == {"certified by the rank", "split with d^2 > n"}


def _grouped_by_char_polys(leaves):
    """The chop's classes keyed by (dim, char_polys) for every leaf: the
    first leaf of a class represents it, with the count of its leaves."""
    grouped = {}
    for m, rank in leaves:
        polys = m.char_polys()
        s, count = grouped.get((m.dim, polys), (SimpleModule(m, polys, rank), 0))
        grouped[m.dim, polys] = (s, count + 1)
    return sorted(grouped.values(), key=lambda t: t[0].sort_key())


def test_chop_classes_match_char_poly_keys(corpus, registry_points, monkeypatch):
    """chop keys an absolutely simple leaf (image rank d^2) by its traces and
    any other by its char polys; its classes, counts and representatives
    (the first leaf, its fingerprints and rank) are those of keying every
    leaf by its char polys, at the registry points and at B3 over Z[d]'s
    generic point, (2), (3), (3, d) and (d - 1).  Both key kinds occur:
    ZC3 over Q has a 2-dim simple with End = Q(omega), of rank 2."""
    from decompgen.corpus import brauer_algebra
    from decompgen.primes import parse_prime

    real, leaves = modules._split_or_certify, []

    def recording(module, rng):
        verdict = real(module, rng)
        if verdict[0] == "simple":
            leaves.append((module, verdict[1]))
        return verdict

    monkeypatch.setattr(modules, "_split_or_certify", recording)
    B3 = brauer_algebra(3, parse_ring("Z[d]"))
    fibers = [specialize(A, p) for key, A in sorted(corpus.items())
              for p in registry_points(key, A)]
    fibers += [specialize(B3, parse_prime(p, B3.ring))
               for p in ("generic", "p=2", "p=3", "gen=[3, d]", "gen=[d - 1]")]
    kinds = set()
    for fiber in fibers:
        leaves.clear()
        got = chop(regular_module(fiber))
        want = _grouped_by_char_polys(leaves)
        assert [c for _, c in got] == [c for _, c in want], fiber.name
        for (s, _), (t, _) in zip(got, want):
            assert s.module is t.module and s.module.action == t.module.action, fiber.name
            assert (s.fingerprint_polys, s.image_rank) == (t.fingerprint_polys, t.image_rank)
        kinds.update(rank == m.dim ** 2 for m, rank in leaves)
    assert kinds == {True, False}


def test_map_table_maps_each_constant_once(corpus, registry_points, monkeypatch):
    """A fiber's table is A's with every coefficient reduced, f runs once
    per distinct coefficient of A's terms, unit and trace vector (a zero
    structure constant has no term and is never mapped), and its terms are
    those a table built from the same constants finds by scanning them: at
    the registry points, at B3 over Z[d]'s generic point, (2), (3),
    (d + 2) and (2, d), where the constants d reduce to 0, and at Q x Q on
    its two idempotents, whose unit holds no zero."""
    from decompgen import algebra
    from decompgen.corpus import brauer_algebra
    from decompgen.primes import generic_point, parse_prime

    B3 = brauer_algebra(3, parse_ring("Z[d]"))
    QxQ = algebra.load_algebra("algebra QxQ\nring Q\nbasis e f\nunit 1, 1\n"
                               "mul 0 0 0 1\nmul 1 1 1 1\n")
    cases = [(A, p) for key, A in sorted(corpus.items()) for p in registry_points(key, A)]
    cases += [(B3, parse_prime(p, B3.ring))
              for p in ("generic", "p=2", "p=3", "gen=[d + 2]", "gen=[2, d]")]
    cases.append((QxQ, generic_point(QxQ.ring)))
    real, seen = algebra.reduce_elem, []

    def counting(c, p):
        seen.append(c)
        return real(c, p)

    monkeypatch.setattr(algebra, "reduce_elem", counting)
    dropped = 0
    for A, p in cases:
        seen.clear()
        fiber = specialize(A, p)
        coeffs = [c for plane in A.terms for ts in plane for _, c in ts] + list(A.unit)
        coeffs += list(A.trace_vector or ())
        assert len(seen) == len(set(seen)) == len(set(coeffs)), (A.name, p.short_str())
        assert fiber.sc == tuple(tuple(tuple(real(c, p) for c in row) for row in plane)
                                 for plane in A.sc)
        scanned = algebra.FiniteFreeAlgebra(A.name, fiber.field, A.basis_names, fiber.sc,
                                            fiber.unit, validate=False)
        assert fiber.terms == scanned.terms, (A.name, p.short_str())
        dropped += sum(map(len, sum(A.terms, ()))) > sum(map(len, sum(fiber.terms, ())))
    assert dropped


# --- full-rank certificates at one point ------------------------------------------------

def _regular_trace_radical(fiber):
    """Kernel of the regular trace form (x, y) -> tr(L_xy), which is the
    Jacobson radical in characteristic 0 (Dickson's criterion)."""
    from decompgen.algebra import span_subspace

    traces = [fiber.left_regular_matrix(fiber.basis_vector(k)).trace()
              for k in range(fiber.dim)]
    return span_subspace(fiber, kernel_basis(Matrix(fiber.field, fiber.form_gram(traces))))


def _analyses_at_registry_points(key, registry_points):
    """radical, is_split, image ranks and Hom dimensions of every registry
    fiber of a freshly built algebra, so that no memo entry is shared with
    another run.  The image rank each simple carries from the chop is
    checked against a fresh `algebra_image_rank`, and in characteristic 0
    the radical against the kernel of the regular trace form."""
    A = REGISTRY[key].algebra()
    out = []
    for p in registry_points(key, A):
        fiber = specialize(A, p)
        split, data = is_split(fiber)
        for s in data.simples:
            assert s.image_rank == algebra_image_rank(s.module), (key, p.short_str())
        if fiber.field.characteristic == 0:
            assert radical(fiber) == _regular_trace_radical(fiber), (key, p.short_str())
        mods = [regular_module(fiber)] + [s.module for s in data.simples]
        out.append((repr(fiber), radical(fiber).rows, split, data.endo_dims,
                    data.multiplicities, data.radical_dim,
                    [algebra_image_rank(m) for m in mods],
                    [[hom_dim(s.module, t.module) for t in data.simples]
                     for s in data.simples]))
    return out


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_certified_ranks_match_the_exact_path(key, registry_points, monkeypatch):
    """radical, is_split, algebra_image_rank and hom_dim give what exact
    elimination gives, at the generic point and at every registry prime;
    over k(d) the certificate fires on some of them.  The endomorphism
    dimensions is_split reads from the image ranks are those hom_dim finds."""
    real, answers = modules.point_rank, []

    def counting(mat):
        answers.append(real(mat))
        return answers[-1]

    monkeypatch.setattr(modules, "point_rank", counting)
    certified = _analyses_at_registry_points(key, registry_points)
    monkeypatch.setattr(modules, "point_rank", lambda mat: None)
    assert certified == _analyses_at_registry_points(key, registry_points)
    for _, _, _, endo_dims, _, _, _, homs in certified:
        assert endo_dims == [homs[i][i] for i in range(len(homs))]
    if REGISTRY[key].algebra().ring.nv:
        assert any(a is not None for a in answers)


def _quadratic(f1, f0):
    """Q[d][x]/(x^2 + f1 x + f0) on the basis 1, x."""
    from decompgen.algebra import FiniteFreeAlgebra

    z, o = Qd.zero(), Qd.one()
    sc = (((o, z), (z, o)), ((z, o), (-f0, -f1)))
    return FiniteFreeAlgebra("quad", Qd, ("one", "x"), sc, (o, z))


def _vanishing_at_tried_points():
    c = Qd.one()
    for a in (3, 5, 7):
        c = c * Qd.parse(f"d - {a}")
    return c


@pytest.mark.parametrize("shape, radical_dim, endo_dims", [
    ("x^2 - c", 0, [2]),
    ("x^2 - c^2", 0, [1, 1]),
    ("(x - c)^2", 1, [1]),
])
def test_singular_at_every_tried_point_falls_back(shape, radical_dim, endo_dims, monkeypatch):
    """The radical of Q[d][x]/(f) is the kernel of the matrix of the
    simples' entries.  With c = (d - 3)(d - 5)(d - 7), the characters
    x -> c and x -> -c of x^2 - c^2 agree at every point the certificate
    tries, and so do those of (x - c)^2 trivially: the point rank is short
    there and exact elimination decides.  x^2 - c has one simple of
    dimension 2, whose entries have full rank at every point."""
    from decompgen.linalg import point_rank, rank

    c, zero = _vanishing_at_tried_points(), Qd.zero()
    f1, f0, at_points = {"x^2 - c": (zero, -c, 2), "x^2 - c^2": (zero, -c * c, 1),
                         "(x - c)^2": (-2 * c, c * c, 1)}[shape]
    results = []
    for exact in (False, True):
        if exact:
            monkeypatch.setattr(modules, "point_rank", lambda mat: None)
        fiber = _quadratic(f1, f0).generic_fiber()
        split, data = is_split(fiber)
        entries = Matrix(fiber.field, [[m.rows[a][b] for m in s.module.action]
                                       for s in data.simples
                                       for a in range(s.dim) for b in range(s.dim)])
        assert point_rank(entries) == at_points and rank(entries) == 2 - radical_dim
        results.append((radical(fiber).rows, split, data.endo_dims))
        assert radical(fiber).dim == radical_dim and data.endo_dims == endo_dims
    assert results[0] == results[1]


def test_hom_dim_and_image_rank_where_the_first_point_is_unlucky():
    """Modules over Q(d) whose ranks drop at d = 3, the first point tried.
    The image rank's point rank stays below d^2 there, so that answer
    comes from exact elimination; hom_dim takes no point rank and always
    eliminates."""
    from decompgen.algebra import FiniteFreeAlgebra
    from decompgen.linalg import point_rank
    from decompgen.modules import AlgebraModule

    K = Qd.fraction_field()
    d, z, o = K.var_scalar(0), K.zero, K.one
    k = lambda c: K.from_int(c)
    t = K.sub(d, k(3))
    # Q(d)[x]/((x - d)(x - 3)) and its two characters x -> d, x -> 3, which
    # agree at d = 3 only
    sc = (((o, z), (z, o)), ((z, o), (K.neg(K.mul(k(3), d)), K.add(d, k(3)))))
    A = FiniteFreeAlgebra("two-roots", K, ("one", "x"), sc, (o, z))
    S = validate_module(AlgebraModule(A, [Matrix(K, [[o]]), Matrix(K, [[d]])]))
    T = validate_module(AlgebraModule(A, [Matrix(K, [[o]]), Matrix(K, [[k(3)]])]))
    assert [hom_dim(S, T), hom_dim(T, S), hom_dim(S, S), hom_dim(T, T)] == [0, 0, 1, 1]
    # Mat_2(Q(d)) on the basis E11, (d - 3) E12, (d - 3) E21, E22: at d = 3
    # only the diagonal acts on the column space, whose commutant is 2-dim
    tt = K.mul(t, t)
    sc = [[[z] * 4 for _ in range(4)] for _ in range(4)]
    for i, j, m, c in ((0, 0, 0, o), (0, 1, 1, o), (1, 3, 1, o), (2, 0, 2, o),
                       (3, 2, 2, o), (3, 3, 3, o), (1, 2, 0, tt), (2, 1, 3, tt)):
        sc[i][j][m] = c
    sc = tuple(tuple(tuple(r) for r in plane) for plane in sc)
    M2 = FiniteFreeAlgebra("mat2", K, ("e11", "e12", "e21", "e22"), sc, (o, z, z, o))
    acts = [Matrix(K, rows) for rows in ([[o, z], [z, z]], [[z, t], [z, z]],
                                         [[z, z], [t, z]], [[z, z], [z, o]])]
    V = validate_module(AlgebraModule(M2, acts))
    flat = Matrix(K, [[c for row in m.rows for c in row] for m in acts])
    assert point_rank(flat) == 2
    assert algebra_image_rank(V) == 4 and hom_dim(V, V) == 1
