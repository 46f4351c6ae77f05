"""Reference implementations the tests check the engine against, and the
builders of their inputs.

No command of decompgen runs any of these.  The oracles compute what the
engine computes by a slower or more naive route: module validation against
the table, isomorphism by Hom, the closure of an ideal under one-sided
products, subspace and prime-ideal membership, the certificate's Gram
determinant from B = A/J's formed Gram matrix, the stratum of a prime by
descending the tree.  The builders give small fibers under random basis
changes, direct sums and the Klein four-group.
"""

import random
from itertools import product

from decompgen import polyops as P
from decompgen.algebra import (
    FiniteFreeAlgebra,
    restrict,
    span_subspace,
    specialize,
    table_on_basis,
)
from decompgen.corpus import (
    cyclic_table,
    dual_numbers,
    group_algebra,
    matrix_algebra,
    temperley_lieb,
    upper_triangular,
)
from decompgen.errors import (
    DimensionMismatch,
    EngineError,
    Inconsistent,
    UnsupportedRing,
    ValidationError,
)
from decompgen.fields import GFExt, GFPrime
from decompgen.linalg import Matrix, det, echelon_reduce, echelon_tails
from decompgen.modules import hom_dim, is_split
from decompgen.primes import generic_point, prime_spec, quotient_chain, reduce_elem
from decompgen.rings import parse_ring
from decompgen.strata import UnresolvedPrime, quotient_over_ring, radical_lattice


class UnitInIdeal(ValidationError):
    pass


# --- builders ---------------------------------------------------------------------

def klein_table():
    # Z/2 x Z/2 by xor of indices
    return [[i ^ j for j in range(4)] for i in range(4)]


def direct_sum(A, B, name=None):
    if A.ring != B.ring:
        raise UnsupportedRing("direct sum needs a common base ring")
    ring = A.ring
    n, m = A.dim, B.dim
    zero = ring.zero()
    names = tuple(f"l_{s}" for s in A.basis_names) + tuple(f"r_{s}" for s in B.basis_names)
    sc = [[[zero] * (n + m) for _ in range(n + m)] for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                sc[i][j][k] = A.sc[i][j][k]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                sc[n + i][n + j][n + k] = B.sc[i][j][k]
    unit = list(A.unit) + list(B.unit)
    trace = None
    if A.trace_vector is not None and B.trace_vector is not None:
        trace = list(A.trace_vector) + list(B.trace_vector)
    sc = tuple(tuple(tuple(r) for r in plane) for plane in sc)
    return FiniteFreeAlgebra(name or f"{A.name}+{B.name}", ring, names, sc, unit, trace)


def conjugate_fiber(fiber, S):
    """Transport the table through the invertible matrix S (basis change):
    the new basis vectors are the rows of S in the old basis.  Raises
    Inconsistent when S is singular."""
    sc, unit = table_on_basis(fiber, S, len(S))
    return FiniteFreeAlgebra(fiber.name + "~conj", fiber.field, fiber.basis_names, sc, unit,
                             prime=fiber.prime)


def small_fiber_family(p, count, seed=0):
    """Validated fibers of dimension <= 4 over GF(p), produced from known
    associative tables and random basis changes; oracle targets for the
    radical."""
    Fp = GFPrime(p)
    ring = parse_ring(f"GF({p})")
    gp = generic_point(ring)
    base = []
    base.append(specialize(group_algebra(cyclic_table(2), ring, f"F{p}C2"), gp))
    base.append(specialize(group_algebra(cyclic_table(3), ring, f"F{p}C3"), gp))
    base.append(specialize(group_algebra(cyclic_table(4), ring, f"F{p}C4"), gp))
    base.append(specialize(group_algebra(klein_table(), ring, f"F{p}V4"), gp))
    base.append(specialize(matrix_algebra(2, ring), gp))
    base.append(specialize(upper_triangular(2, ring), gp))
    base.append(specialize(dual_numbers(ring), gp))
    dual = dual_numbers(ring)
    base.append(specialize(direct_sum(dual, dual), gp))
    ringd = parse_ring(f"GF({p})[d]")
    for c in range(p):
        spec = prime_spec(ringd, [ringd.parse(f"d - {c}")])
        base.append(specialize(temperley_lieb(2, ringd), spec))
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        fiber = base[rng.randrange(len(base))]
        n = fiber.dim
        for _ in range(50):
            S = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            if not Fp.is_zero(det(Matrix(Fp, S))):
                break
        out.append(conjugate_fiber(fiber, S))
    return out


def elements(F):
    """Every element of a finite field GF(p) or GF(p^e)."""
    if isinstance(F, GFExt):
        return product(range(F.p), repeat=F.e)
    return range(F.p)


# --- matrices ---------------------------------------------------------------------

def zeros(F, m, n):
    return Matrix(F, [[F.zero] * n for _ in range(m)])


def matrix_add(x, y):
    F = x.field
    if (x.nrows, x.ncols) != (y.nrows, y.ncols):
        raise DimensionMismatch("matrix addition shape mismatch")
    return Matrix(F, [[F.add(a, b) for a, b in zip(r, s)] for r, s in zip(x.rows, y.rows)])


# --- modules ----------------------------------------------------------------------

def validate_module(module):
    """The module, once the unit is checked to act as the identity and the
    action to respect the table; raises Inconsistent otherwise."""
    fiber = module.fiber
    F = fiber.field
    n = fiber.dim
    ident = Matrix.identity(F, module.dim)
    acc = zeros(F, module.dim, module.dim)
    for i in range(n):
        if not F.is_zero(fiber.unit[i]):
            acc = matrix_add(acc, module.action[i].scale(fiber.unit[i]))
    if acc != ident:
        raise Inconsistent("unit does not act as the identity")
    for i in range(n):
        for j in range(n):
            lhs = module.action[i].mul(module.action[j])
            rhs = zeros(F, module.dim, module.dim)
            for k, c in fiber.terms[i][j]:
                rhs = matrix_add(rhs, module.action[k].scale(c))
            if lhs != rhs:
                raise Inconsistent("action does not respect the table")
    return module


def is_isomorphic(S, T, cross_validate=False):
    """Fingerprint comparison; complete for certified simples over one fiber.
    With cross_validate, Hom(S, T) must be nonzero exactly when the
    fingerprints agree."""
    if S.module.fiber.field != T.module.fiber.field:
        return False
    same = S.dim == T.dim and S.fingerprint_polys == T.fingerprint_polys
    if cross_validate:
        hd = hom_dim(S.module, T.module)
        if (hd > 0) != same:
            raise EngineError("fingerprint equality disagrees with Hom")
    return same


def is_zero_matrix(m):
    F = m.field
    return all(F.is_zero(c) for r in m.rows for c in r)


def reconstruct(gb, i):
    """Input i of a GcdFreeBasis, rebuilt from its unit and multiplicities."""
    F = gb.field
    out = (gb.units[i],)
    for g, m in zip(gb.basis, gb.mults[i]):
        for _ in range(m):
            out = P.umul(F, out, g)
    return out


# --- subspaces and ideals of fibers -------------------------------------------------

def contains_vector(lattice, vec):
    F = lattice.ambient.field
    nonzero = {k: c for k, c in enumerate(vec) if not F.is_zero(c)}
    work = echelon_reduce(F, echelon_tails(F, lattice.rows), nonzero)
    return all(F.is_zero(c) for c in work.values())


def one_sided_products(fiber, v):
    """("left", b_i v) and ("right", v b_i) for every basis element b_i,
    read off `terms`: b_i v = sum_j v_j sum_k c[i][j][k] b_k and
    v b_i = sum_j v_j sum_k c[j][i][k] b_k, summed in the order vec_mul
    sums them, with no product by a coordinate 1."""
    D = fiber.domain
    add, mul, is_zero = D.add, D.mul, D.is_zero
    vs = [(j, vj) for j, vj in enumerate(v) if not is_zero(vj)]
    terms = fiber.terms

    def combine(pairs):
        out = [D.zero] * fiber.dim
        for vj, ts in pairs:
            for k, c in ts:
                out[k] = add(out[k], mul(vj, c))
        return out

    for i in range(fiber.dim):
        yield "left", combine((vj, terms[i][j]) for j, vj in vs)
        yield "right", combine((vj, terms[j][i]) for j, vj in vs)


def ideal_closure(fiber, generators):
    """Smallest two-sided ideal of a fiber containing the generators, as a
    canonical SubLattice; closure by repeated one-sided multiplications to a
    fixpoint.  A table over a ring raises UnsupportedRing."""
    if not fiber.over_field:
        raise UnsupportedRing("ideal closure runs on a fiber, such as the generic fiber")
    current = span_subspace(fiber, [list(g) for g in generators])
    while True:
        new_rows = list(current.rows)
        for v in current.rows:
            new_rows.extend(w for _, w in one_sided_products(fiber, v))
        nxt = span_subspace(fiber, new_rows)
        if nxt == current:
            return nxt
        current = nxt


def quotient_algebra(fiber, ideal):
    """Fiber modulo a closure-stable ideal, on the complement basis of the
    non-pivot coordinates."""
    F = fiber.field
    keep = [j for j in range(fiber.dim) if j not in ideal.pivots]
    if not keep:
        raise UnitInIdeal("quotient by the whole algebra")
    basis = [fiber.basis_vector(j) for j in keep] + [list(r) for r in ideal.rows]
    sc, unit = table_on_basis(fiber, basis, len(keep))
    if all(F.is_zero(c) for c in unit):
        raise UnitInIdeal("the unit lies in the ideal")
    names = [fiber.basis_names[j] for j in keep]
    return FiniteFreeAlgebra(f"{fiber.name}/ideal", F, names, sc, unit, validate=False,
                             prime=fiber.prime)


# --- primes and strata --------------------------------------------------------------

def contains(spec, elem):
    """Ideal membership for the supported shapes: elem lies in the prime."""
    return spec.residue_field.is_zero(reduce_elem(elem, spec))


# --- discriminant -----------------------------------------------------------------

def weighted_character_values(A, lifts):
    """t(q_k) = sum over the simples S of w_S chi_S(c_k) for each
    complement lift c_k: J acts as zero on every simple of A's generic
    fiber, so chi_S(q_k) is the trace of c_k acting on S, whatever basis S
    has."""
    fiber = A.generic_fiber()
    K = fiber.field
    _, data = is_split(fiber)
    chi = [K.zero] * fiber.dim
    for s, m in zip(data.simples, data.multiplicities):
        w = K.from_int(m)
        if K.is_zero(w):
            w = K.one
        for k, act in enumerate(s.module.action):
            chi[k] = K.add(chi[k], K.mul(w, act.trace()))
    values = []
    for lift in lifts:
        t = K.zero
        for c, x in zip(lift, chi):
            if not K.is_zero(c) and not K.is_zero(x):
                t = K.add(t, K.mul(c, x))
        values.append(t)
    return values


def gram_route_determinant(A):
    """The certificate's determinant by the Gram route: B = A/J's Gram
    matrix of t = sum_S w_S chi_S, formed from B's table on the complement
    lifts, and its determinant; returns it with the lifts."""
    B, lifts, _ = quotient_over_ring(A, radical_lattice(A))
    return det(Matrix(B.field, B.form_gram(weighted_character_values(A, lifts)))), lifts


def push_prime(ring, xi, p):
    """The prime p/xi of R/xi, for primes xi and p of R with xi inside p."""
    qring, push = quotient_chain(ring, xi.generators)
    return prime_spec(qring, [push(g) for g in p.generators])


def locate_stratum(node, A, p, path=()):
    """Deterministic stratum assignment of a prime: descend into the first
    child whose component contains it, else stay in the node stratum."""
    if node.kind != "node":
        return path + ((node.kind, node.algebra_name),)
    for pt, child in node.children:
        spec = pt.prime
        gens = (spec.generator,) if isinstance(spec, UnresolvedPrime) else spec.generators
        if all(contains(p, g) for g in gens):
            if child.kind != "node":
                return path + ((child.kind, node.algebra_name, spec.short_str()),)
            return locate_stratum(child, restrict(A, spec), push_prime(A.ring, spec, p),
                                  path + (("descend", spec.short_str()),))
    return path + (("node", node.algebra_name),)
