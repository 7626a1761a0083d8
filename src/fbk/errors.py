"""Exception types shared across the library.

Everything raised on purpose derives from FbkError so the CLI can map
failures to stable exit codes. Numerical failures (rank drops, lift
inconsistencies, tracer breakdowns) are kept distinct from input errors
(parse/validation) and from registry lookups.
"""


class FbkError(Exception):
    """Base class for all library errors."""


class NumericalError(FbkError):
    """Base class for failures of the numerical machinery."""


class RankDeficient(NumericalError):
    """A vector set or matrix lost rank below the working tolerance.

    index is the position of the failing set when a stack of sets was
    checked at once, otherwise None.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class DimensionMismatch(FbkError):
    """Operands live in different dimensions."""


class NotOrthogonal(NumericalError):
    """A matrix expected to be special orthogonal is not, within tolerance."""


class NotNearIdentity(NumericalError):
    """A relative rotation was too far from the identity to lift canonically."""


class LiftInconsistent(NumericalError):
    """The accumulated lift of a closed rotation loop did not land on +-1."""


class RefinementExhausted(NumericalError):
    """A rotation step exceeded the angle bound and no refiner could fix it."""


class OrientationMismatch(FbkError):
    """An assembled frame has determinant -1 under the fixed row order."""


class AmbientMismatch(FbkError):
    """An operation restricted to one ambient kind was given another."""


class TooFewFields(FbkError):
    """A framing operation needs more fields than the framing provides."""


class EvaluationFailure(NumericalError):
    """A user-supplied callable raised while being sampled."""


class NoConvergence(NumericalError):
    """Newton correction from a seed did not reach the solution set."""


class NotClosed(NumericalError):
    """A traced curve failed to close within the step budget."""


class Singular(NumericalError):
    """Rank drop along a traced curve; transversality is violated."""


class NonTransverse(NumericalError):
    """A section's derivative degenerated on the normal space of its zero locus."""


class DuplicateComponent(FbkError):
    """Two seeds traced the same solution component."""


class ParseError(FbkError):
    """A link file is structurally malformed."""


class ValidationError(FbkError):
    """A link file parsed but violates a named domain invariant."""


class UnknownScenario(FbkError):
    """Requested scenario name is not registered."""
