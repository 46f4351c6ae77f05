"""Acceptance criteria, one test per criterion, each printing a PASS line.

Expected values are either classical facts (the group-order locus), pinned
engine-independent oracles computed inside the test (orthogonality sums,
exhaustive nilpotent-ideal search, exhaustive character enumeration), or
structural invariants of the computed objects.  Stated runtime budgets are
asserted.
"""

import random
import time

from decompgen.corpus import REGISTRY
from decompgen.decomposition import (
    dec_gen_membership,
    decomposition_matrix,
    fiber_split_data,
    is_trivial,
    split_data,
)
from decompgen.errors import NotPrime, UnsupportedError
from decompgen.fingerprints import fingerprint_of_simple
from decompgen.modules import is_split, radical
from decompgen.primes import prime_spec
from decompgen.rings import parse_ring
from decompgen.strata import candidate_discriminant, dec_ex, schur_elements, stratify
from oracles import contains, contains_vector, small_fiber_family

Z = parse_ring("Z")
Qd = parse_ring("Q[d]")
Zd = parse_ring("Z[d]")


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


def excluded_generators(tree_or_dec):
    dec = tree_or_dec.discriminant if hasattr(tree_or_dec, "discriminant") else tree_or_dec
    return sorted(str(pt.prime.generators[0]) for pt in dec.excluded)


def test_criterion_1_classical_group_locus(corpus):
    t0 = time.time()
    tree = stratify(corpus["ZS3"])
    assert excluded_generators(tree) == ["2", "3"]
    for pt in tree.discriminant.recovered:
        assert pt.fiber_radical_dim == pt.generic_radical_dim
    tree2 = stratify(corpus["ZC2"])
    assert excluded_generators(tree2) == ["2"]
    elapsed = time.time() - t0
    assert elapsed < 10
    report(1, f"ZS3 excluded (2),(3); ZC2 excluded (2); {elapsed:.2f}s")


def orthogonality_schur_oracle(A, table):
    """c_i = (1/dim S_i) sum_g chi_i(g) chi_i(g^{-1}), straight from the
    group table and the simple modules' traces."""
    wd = split_data(A)
    fiber = A.generic_fiber()
    K = fiber.field
    n = A.dim
    ident = next(e for e in range(n)
                 if all(table[e][j] == j and table[j][e] == j for j in range(n)))
    inverse = {i: next(j for j in range(n) if table[i][j] == ident) for i in range(n)}
    out = []
    for s in wd.simples:
        chars = [s.module.action[k].trace() for k in range(n)]
        acc = K.zero
        for g in range(n):
            acc = K.add(acc, K.mul(chars[g], chars[inverse[g]]))
        out.append(K.div(acc, K.from_int(s.dim)))
    return out


def test_criterion_2_schur_crosscheck(corpus):
    from decompgen.corpus import cyclic_table, s3_table
    from decompgen.strata import schur_discriminant_crosscheck

    t0 = time.time()
    for key, table, expect in (("ZS3", s3_table(), ["6", "6", "3"]),
                               ("ZC2", cyclic_table(2), ["2", "2"])):
        A = corpus[key]
        cs = schur_elements(A)
        assert [str(c) for c in cs] == expect
        oracle = orthogonality_schur_oracle(A, table)
        K = A.generic_fiber().field
        assert [A.ring.to_field(c, K) for c in cs] == oracle
        rep = schur_discriminant_crosscheck(A)
        assert rep["match"]
    elapsed = time.time() - t0
    assert elapsed < 5
    report(2, f"Schur (6,6,3) and (2,2) match the orthogonality oracle "
              f"and the excluded loci; {elapsed:.2f}s")


def _sampled_primes(A, rng, count, avoid=None):
    """Deterministically sampled supported primes of A's ring."""
    out, seen = [], set()
    small = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
             61, 67, 71, 73, 79, 83, 89, 97]
    attempts = 0
    while len(out) < count and attempts < 600:
        attempts += 1
        try:
            if A.ring == Z:
                p = prime_spec(Z, [Z.from_int(rng.choice(small))])
            else:
                ring = A.ring
                over_z = str(ring).startswith("Z")
                kind = rng.randrange(3)
                if kind == 0 and over_z:
                    p = prime_spec(ring, [ring.from_int(rng.choice(small))])
                elif kind == 2 and over_z:
                    q = rng.choice([2, 3, 5])
                    c = rng.randint(0, q - 1)
                    p = prime_spec(ring, [ring.from_int(q), ring.parse(f"d - {c}")])
                else:
                    c = rng.randint(-15, 15)
                    p = prime_spec(ring, [ring.parse(f"d - {c}" if c >= 0 else f"d + {-c}")])
        except (NotPrime, UnsupportedError):
            continue
        if avoid is not None and contains(p, avoid):
            continue
        if p.signature in seen:
            continue
        seen.add(p.signature)
        out.append(p)
    return out


def split_corpus(corpus):
    return {k: corpus[k] for k, e in REGISTRY.items()
            if e.facts.get("generic_split")}


def test_criterion_3_triviality_equivalence(corpus):
    t0 = time.time()
    rng = random.Random(2024)
    disagreements = 0
    checked = 0
    for key, A in split_corpus(corpus).items():
        dec = dec_ex(A)
        primes = [pt.prime for pt in dec.excluded]
        primes += _sampled_primes(A, rng, 10, avoid=dec.candidate)
        for p in primes:
            D = decomposition_matrix(A, p)
            if is_trivial(D) != dec_gen_membership(A, p).trivial:
                disagreements += 1
            checked += 1
    elapsed = time.time() - t0
    assert disagreements == 0
    assert checked >= 9 * 10
    assert elapsed < 120
    report(3, f"{checked} (algebra, prime) pairs, 0 disagreements; {elapsed:.1f}s")


def test_criterion_4_radical_monotonicity(corpus):
    t0 = time.time()
    rng = random.Random(77)
    evaluations = 0
    for key, A in split_corpus(corpus).items():
        generic_dim = split_data(A).radical_dim
        for p in _sampled_primes(A, rng, 25):
            ev = dec_gen_membership(A, p)
            assert ev.fiber_radical_dim >= generic_dim, (key, p)
            evaluations += 1
    elapsed = time.time() - t0
    assert evaluations >= 200
    report(4, f"{evaluations} fiber evaluations, radical never dropped; {elapsed:.1f}s")


def _all_subspaces(p, n):
    from itertools import combinations, product

    yield []
    for r in range(1, n + 1):
        for pivots in combinations(range(n), r):
            free = [(i, c) for i, pj in enumerate(pivots)
                    for c in range(pj + 1, n) if c not in pivots]
            for vals in product(range(p), repeat=len(free)):
                rows = [[0] * n for _ in range(r)]
                for i, pj in enumerate(pivots):
                    rows[i][pj] = 1
                for (i, c), v in zip(free, vals):
                    rows[i][c] = v
                yield rows


def _exhaustive_radical_dim(fiber):
    from decompgen.algebra import nilpotency_index, span_subspace

    F = fiber.field
    n = fiber.dim
    best = 0
    for rows in _all_subspaces(F.p, n):
        if len(rows) <= best:
            continue
        lat = span_subspace(fiber, [[F.from_int(c) for c in r] for r in rows])
        ok = True
        for v in lat.rows:
            for i in range(n):
                b = fiber.basis_vector(i)
                if not contains_vector(lat, fiber.vec_mul(b, list(v))) or \
                   not contains_vector(lat, fiber.vec_mul(list(v), b)):
                    ok = False
                    break
            if not ok:
                break
        if ok and nilpotency_index(fiber, lat) is not None:
            best = len(rows)
    return best


def test_criterion_5_radical_oracle():
    t0 = time.time()
    fibers = [f for f in small_fiber_family(2, 30, seed=10) if f.dim <= 4]
    fibers += [f for f in small_fiber_family(3, 30, seed=11) if f.dim <= 4]
    assert len(fibers) >= 50
    for fiber in fibers:
        assert radical(fiber).dim == _exhaustive_radical_dim(fiber)
    elapsed = time.time() - t0
    assert elapsed < 120
    report(5, f"{len(fibers)} small fibers agree with exhaustive search; {elapsed:.1f}s")


def test_criterion_6_fingerprint_injectivity(corpus):
    """Distinct simples of one fiber have distinct fingerprints.  Every pair
    is counted once, over the generic fiber, every excluded point and five
    sampled good primes of each split algebra."""
    rng = random.Random(606)
    simple_sets = []
    for key, A in split_corpus(corpus).items():
        simple_sets.append(split_data(A).simples)
        dec = dec_ex(A)
        primes = [pt.prime for pt in dec.excluded]
        primes += _sampled_primes(A, rng, 5, avoid=dec.candidate)
        for p in primes:
            simple_sets.append(fiber_split_data(A, p).simples)
    comparisons = 0
    collisions = 0
    for simples in simple_sets:
        fps = [fingerprint_of_simple(s) for s in simples]
        for i in range(len(fps)):
            for j in range(i + 1, len(fps)):
                comparisons += 1
                if fps[i].polys == fps[j].polys:
                    collisions += 1
    assert collisions == 0
    assert comparisons >= 100
    report(6, f"{comparisons} simple-pair comparisons in {len(simple_sets)} fibers, "
              "no fingerprint collisions")


def _commutative_characters_by_enumeration(fiber, candidates):
    """All ring homomorphisms fiber -> field with values among the candidate
    scalars, found by exhaustive verification against the table."""
    from itertools import product

    F = fiber.field
    n = fiber.dim
    out = []
    for vals in product(candidates, repeat=n):
        ok = True
        # unit normalization
        acc = F.zero
        for i in range(n):
            acc = F.add(acc, F.mul(fiber.unit[i], vals[i]))
        if not F.is_zero(F.sub(acc, F.one)):
            continue
        for i in range(n):
            for j in range(n):
                lhs = F.mul(vals[i], vals[j])
                rhs = F.zero
                for k in range(n):
                    c = fiber.sc[i][j][k]
                    if not F.is_zero(c):
                        rhs = F.add(rhs, F.mul(c, vals[k]))
                if not F.is_zero(F.sub(lhs, rhs)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(vals)
    return out


def test_criterion_7_brauer_b2(corpus):
    t0 = time.time()
    B2Q = corpus["B2_Q"]
    dec = dec_ex(B2Q)
    assert excluded_generators(dec) == ["d"]
    pd = prime_spec(Qd, [Qd.parse("d")])
    D = decomposition_matrix(B2Q, pd)
    assert sorted(D.entries) == sorted(((1, 0), (1, 0), (0, 1)))
    assert D.entries == ((1, 0), (0, 1), (1, 0))  # canonical simple order
    # oracle: exhaustive character enumeration of the commutative fiber
    from decompgen.algebra import specialize

    fiber = specialize(B2Q, pd)
    K = fiber.field
    chars = _commutative_characters_by_enumeration(
        fiber, [K.from_int(-1), K.zero, K.one])
    assert len(chars) == 2  # (s,u) -> (1,0) and (-1,0)
    # generic characters: chi(u) solves x(x - d) = 0, chi(s) = +-1
    G = B2Q.generic_fiber()
    KG = G.field
    d_scalar = KG.var_scalar(0)
    gchars = _commutative_characters_by_enumeration(
        G, [KG.from_int(-1), KG.zero, KG.one, d_scalar])
    assert len(gchars) == 3
    # counting reductions: the characters (1,0) and (1,d) collapse at d=0
    from decompgen.fingerprints import reduce_fingerprint

    reduced = [reduce_fingerprint(fingerprint_of_simple(s), pd)
               for s in split_data(B2Q).simples]
    wf = is_split(fiber)[1]
    fiber_fps = [fingerprint_of_simple(s) for s in wf.simples]
    hits = sorted(sum(1 for r in reduced if r.polys == f.polys) for f in fiber_fps)
    assert hits == [1, 2]
    # over Z[d]: both verified components
    B2Z = corpus["B2_Z"]
    decz = dec_ex(B2Z)
    assert set(excluded_generators(decz)) >= {"2", "d"}
    for pt in decz.points:
        assert pt.status in ("Excluded", "RecoveredTrivial")
    elapsed = time.time() - t0
    assert elapsed < 30
    report(7, f"B2 loci verified over Q[d] and Z[d] with character oracle; {elapsed:.1f}s")


def test_criterion_8_generic_triviality_sampled(corpus):
    t0 = time.time()
    rng = random.Random(31337)
    for key, A in split_corpus(corpus).items():
        g = candidate_discriminant(A)
        primes = _sampled_primes(A, rng, 20, avoid=g)
        assert len(primes) == 20, key
        for p in primes:
            assert dec_gen_membership(A, p).trivial, (key, p.short_str())
    elapsed = time.time() - t0
    report(8, f"sampled primes outside each candidate all trivial; {elapsed:.1f}s")


def test_criterion_9_stretch_b3(b3):
    t0 = time.time()
    ok, wd = is_split(b3.generic_fiber())
    assert ok
    total = wd.radical_dim + sum(
        m * s.dim for s, m in zip(wd.simples, wd.multiplicities))
    assert total == 15
    assert sum(m * s.dim for s, m in zip(wd.simples, wd.jh_multiplicities)) == 15
    elapsed = time.time() - t0
    assert elapsed < 600
    report(9, f"B3 simples {[s.dim for s in wd.simples]} bookkeeping closed; {elapsed:.1f}s")
