"""Exception hierarchy for the engine.

Every error carries an exit-code class so the command line tool can map
failures uniformly: 2 for validation problems in the input, 3 for requests
that fall outside the supported scope, and 1 for a plain EngineError (a
mathematical negative such as NotSplit, a failed internal check such as a
linalg shape error on a matrix the engine built, or an exhausted chop
budget), which `cli.main` prints as `error: ...` like the others.
"""

VALIDATION = 2
UNSUPPORTED = 3


class EngineError(Exception):
    exit_code = 1


class ValidationError(EngineError):
    exit_code = VALIDATION


class UnsupportedError(EngineError):
    exit_code = UNSUPPORTED


# ring / field layer

class UnsupportedRing(UnsupportedError):
    pass


class UnsupportedResidueField(UnsupportedError):
    pass


class NotPrime(ValidationError):
    pass


class FactorBudgetExceeded(UnsupportedError):
    pass


class NotReducible(ValidationError):
    pass


# linear algebra

class DimensionMismatch(EngineError):
    """Operands of incompatible shapes: linalg only meets matrices the
    engine built, so this is a failed internal check, not bad input."""


class Inconsistent(EngineError):
    pass


class NotSquare(EngineError):
    """A square-only operation on a non-square matrix the engine built."""


# algebra layer

class NotAssociative(ValidationError):
    pass


class NoUnit(ValidationError):
    pass


class BadTraceForm(ValidationError):
    pass


class UnsupportedRestriction(UnsupportedError):
    pass


class NotAGroup(ValidationError):
    pass


# module / representation layer

class ChopBudgetExceeded(EngineError):
    pass


class RadicalNotNilpotent(EngineError):
    """Internal consistency failure: the computed radical must be nilpotent."""


class NotSplit(EngineError):
    """A valid algebra whose fiber does not split: a mathematical negative
    (exit 1), not a fault of the input."""


class NoIntegerSolution(EngineError):
    """The fingerprint multiplicity system had no unique nonnegative integer solution."""


class NotSymmetric(ValidationError):
    pass


class NotSemisimpleGeneric(ValidationError):
    pass
