"""Decomposition matrices between the generic fiber and special fibers.

The matrix is computed entirely at the fingerprint level: reduce the
fingerprint of each generic simple coefficientwise, then solve for the
multiplicities of the fiber simples' fingerprints inside it.  The linear
system lives over a gcd-free basis of all involved polynomials, so no
factorization over the residue field is ever needed, and injectivity of the
fingerprint map makes the solution unique.

The fiber's simples come from the generic ones as well.  Let ρ_S(b_i) be
the matrices of a composition factor S of the generic regular module in the
basis its chop chose.  When every entry lies in the localization R_p, the
lattice R_p^(d_S) is stable under A_{R_p}, and reducing the entries gives
an A(p)-module L̄_S.  For a in A_{R_p}, the characteristic polynomial of a
on A_K is the product of those on the S, each taken jh(S) times; all of
them have coefficients in R_p, and they reduce to the characteristic
polynomials of ā on A(p) and on the L̄_S.  Every element of A(p) is such an
ā, so by Brauer–Nesbitt (Curtis–Reiner, Methods of Representation Theory I,
30.16) [A(p)] = Σ_S jh(S)·[L̄_S]: the composition factors of A(p) are those
of the L̄_S, a factor of L̄_S counted jh(S) times.  The argument uses only
the ring homomorphism R_p -> k(p), not normality or a valuation ring, so it
holds at the localization at any prime.  `fiber_split_data` therefore
chops the modules L̄_S of dimension d_S, not the regular module of
dimension n, and chops the regular module only when an entry lies outside
R_p.  The radical's nilpotency check still certifies the list of simples
complete, whichever route found them.

Triviality (the matrix being a permutation matrix) is equivalent to the
radical dimension staying constant from the generic fiber, which gives the
cheap test; verification mode computes both and insists they agree.
"""

from dataclasses import dataclass
from functools import cache

from .errors import Inconsistent, NoIntegerSolution, NotReducible, NotSplit
from .fields import Rationals
from .fingerprints import fingerprint_of_simple, reduce_fingerprint
from .linalg import Matrix, gcd_free_basis, solve
from .algebra import specialize
from .modules import AlgebraModule, is_split, regular_factors
from .primes import reduce_scalar


def split_data(A):
    """Wedderburn data of the generic fiber; NotSplit if it fails."""
    ok, wd = is_split(A.generic_fiber())
    if not ok:
        raise NotSplit(f"the generic fiber of {A.name} does not split")
    return wd


def fiber_split_data(A, p):
    """Wedderburn data of the fiber at p; NotSplit if it fails.  A fiber
    table met for the first time takes its composition factors from the
    reduced generic simples (`reduced_generic_simples`), or from the chop
    of its regular module when an entry lies outside R_p."""
    fiber = specialize(A, p)
    regular_factors(fiber, lambda: reduced_generic_simples(A, fiber))
    ok, wd = is_split(fiber)
    if not ok:
        raise NotSplit(f"the fiber of {A.name} at {p.short_str()} does not split")
    return wd


def reduced_generic_simples(A, fiber):
    """(L̄_S, jh(S)) for every composition factor S of the generic regular
    module: ρ_S(b_i) with each distinct entry reduced once into the residue
    field of fiber.prime, or None when an entry lies outside R_p."""
    F, p = fiber.field, fiber.prime
    image = cache(lambda c: reduce_scalar(c, p))
    try:
        return [(AlgebraModule(fiber, [
                    Matrix.from_columns(F, s.dim, [
                        [(i, e) for i, c in col for e in (image(c),) if not F.is_zero(e)]
                        for col in m.columns()])
                    for m in s.module.action]), jh)
                for s, jh in regular_factors(A.generic_fiber())]
    except NotReducible:
        return None


@dataclass
class DecompositionMatrix:
    algebra_name: str
    prime: object
    entries: tuple             # rows: generic simples, cols: fiber simples
    row_dims: tuple
    col_dims: tuple

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0]) if self.entries else 0

    def __repr__(self):
        body = "; ".join(" ".join(str(c) for c in r) for r in self.entries)
        return f"[{body}] at {self.prime.short_str()}"


def decomposition_matrix(A, p, wf=None):
    """Multiplicities of the fiber simples in the reductions of the generic
    simples, solved from the fingerprint multiplicity system; wf is the
    fiber's Wedderburn data when the caller has it already."""
    wk = split_data(A)
    if wf is None:
        wf = fiber_split_data(A, p)
    generic_fps = [fingerprint_of_simple(s) for s in wk.simples]
    fiber_fps = [fingerprint_of_simple(s) for s in wf.simples]
    reduced = [reduce_fingerprint(fp, p) for fp in generic_fps]
    fps = fiber_fps + reduced
    n = A.dim  # a fingerprint holds one polynomial per basis element
    basis = gcd_free_basis(p.residue_field, [f for fp in fps for f in fp.polys])
    # the multiplicity vector of a fingerprint: its polynomials' rows of
    # basis multiplicities, concatenated
    vecs = [sum(basis.mults[j * n:(j + 1) * n], ()) for j in range(len(fps))]
    ncols = len(fiber_fps)
    system = Matrix(Rationals(), list(zip(*vecs[:ncols])))
    entries = []
    for i, rhs in enumerate(vecs[ncols:]):
        try:
            d = solve(system, rhs)
        except Inconsistent as e:
            raise NoIntegerSolution(
                f"fingerprint system for simple {i} of {A.name} at {p.short_str()}: {e}") from None
        if any(x.denominator != 1 or x < 0 for x in d):
            raise NoIntegerSolution(
                f"multiplicities {d} are not nonnegative integers")
        drow = tuple(int(x) for x in d)
        if sum(m * wf.simples[j].dim for j, m in enumerate(drow)) != wk.simples[i].dim:
            raise NoIntegerSolution(
                f"dimension bookkeeping fails in row {i} at {p.short_str()}")
        entries.append(drow)
    # reducing the generic regular module gives the fiber's regular module:
    # sum_i jh_K(S_i) D[i][j] = jh_p(T_j) for every fiber simple T_j
    for j, jh in enumerate(wf.jh_multiplicities):
        if sum(m * row[j] for m, row in zip(wk.jh_multiplicities, entries)) != jh:
            raise NoIntegerSolution(
                f"regular-module multiplicities fail in column {j} at {p.short_str()}")
    return DecompositionMatrix(
        A.name, p, tuple(entries),
        tuple(s.dim for s in wk.simples), tuple(s.dim for s in wf.simples))


def is_trivial(D):
    """True exactly for permutation matrices."""
    if D.nrows != D.ncols:
        return False
    for row in D.entries:
        if sorted(row) != [0] * (D.ncols - 1) + [1]:
            return False
    for j in range(D.ncols):
        col = [row[j] for row in D.entries]
        if sorted(col) != [0] * (D.nrows - 1) + [1]:
            return False
    return True


@dataclass
class TrivialityEvidence:
    trivial: bool
    generic_radical_dim: int
    fiber_radical_dim: int
    matrix: object = None
    matrix_agrees: bool = None


def dec_gen_membership(A, p, verify=False):
    """Triviality of the decomposition map at p via the radical criterion;
    with verify=True the matrix is computed as well and must agree."""
    wk = split_data(A)
    wf = fiber_split_data(A, p)
    trivial = wk.radical_dim == wf.radical_dim
    ev = TrivialityEvidence(trivial, wk.radical_dim, wf.radical_dim)
    if verify:
        D = decomposition_matrix(A, p, wf)
        ev.matrix = D
        ev.matrix_agrees = is_trivial(D) == trivial
        if not ev.matrix_agrees:
            raise NoIntegerSolution(
                f"radical criterion and matrix disagree for {A.name} at {p.short_str()}")
    return ev

