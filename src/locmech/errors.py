"""Exception hierarchy shared across the package.

Split by how a front end should react: ValidationError means the inputs or
a structural invariant are bad, NumericError means a computation hit a
guard (singularity, refinement limit, overflow, non-finite value).
"""


class LocmechError(Exception):
    pass


class ValidationError(LocmechError):
    """Bad configuration, bad arguments, or a violated structural invariant."""


class NumericError(LocmechError):
    """A numeric guard tripped; results would be meaningless.  row is the
    lowest row of a batch of line integrals that the guard refused, or None."""

    row = None


class SingularityError(NumericError):
    """Evaluation or a path came within the guard radius of a singular point."""


class RefinementLimitError(NumericError):
    """Recursive subdivision hit its depth limit without resolving a step."""


class DomainEvalError(NumericError):
    """Expression evaluation left the real domain (div by zero, log <= 0, ...)."""


class NonFiniteError(NumericError):
    """A value or an integral came out inf or nan."""


class ChartMembershipError(ValidationError):
    """A point was expected inside a chart but is not."""


class CocycleConstancyError(ValidationError):
    """Potential differences on an overlap failed to be constant."""


class NerveDisconnectedError(ValidationError):
    """The overlap graph of the atlas has more than one component."""

    def __init__(self, components):
        self.components = [sorted(c) for c in components]
        super().__init__(f"nerve graph disconnected: components {self.components}")


class TransitionOverflowError(NumericError):
    """exp of a cocycle entry would overflow a double."""
