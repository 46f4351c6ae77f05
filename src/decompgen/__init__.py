"""decompgen: exact computation of decomposition matrices, Jacobson
radicals, fingerprints and triviality strata for finite free algebras
presented by structure constants over Z, Z[x], Q[x], Q[x,y], GF(p)[x] or
GF(p)[x,y].

Typical use:

    from decompgen import corpus, stratify, decomposition_matrix, prime_spec
    A = corpus.REGISTRY["ZS3"].algebra()
    tree = stratify(A)

or through the `decompgen` command line tool.
"""

from . import corpus
from .algebra import (
    FiniteFreeAlgebra,
    SubLattice,
    load_algebra,
    load_algebra_file,
    nilpotency_index,
    restrict,
    serialize_algebra,
    specialize,
)
from .decomposition import (
    DecompositionMatrix,
    dec_gen_membership,
    decomposition_matrix,
    is_trivial,
)
from .factor import factor_integer, factor_univariate
from .fields import FuncField, GFExt, GFPrime, Rationals
from .fingerprints import Fingerprint, reduce_fingerprint
from .linalg import Matrix, char_poly, det, gcd_free_basis, kernel_basis, solve
from .modules import (
    AlgebraModule,
    SimpleModule,
    WedderburnData,
    chop,
    is_split,
    radical,
    regular_module,
)
from .primes import (
    PrimeSpec,
    denominator_ideal,
    generic_point,
    parse_prime,
    prime_spec,
    reduce_elem,
)
from .rings import RingDescriptor, RingElement, parse_ring
from .strata import (
    Discriminant,
    RadicalLattice,
    StratumNode,
    candidate_discriminant,
    dec_ex,
    minimal_primes,
    radical_lattice,
    schur_discriminant_crosscheck,
    schur_elements,
    stratify,
)

__version__ = "0.1.0"
