"""Exception hierarchy shared by all awnev modules.

Three broad families matter for the CLI exit-code contract:
``ExpressionError`` (bad input text or parameters), ``NumericFailure``
(a computation ran but its residual/verification failed), and
``PreconditionError`` (the requested operation is outside its domain).
"""


class AwnevError(Exception):
    """Base class for all awnev-specific errors."""


# --- input / expression problems -------------------------------------------

class ExpressionError(AwnevError):
    """Bad expression text or semantically invalid construction."""


class ExprSyntaxError(ExpressionError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class SemanticError(ExpressionError):
    pass


class InvalidParams(ExpressionError):
    pass


class UnsupportedShape(ExpressionError):
    """AST cannot be lowered to a sum of product forms."""


# --- numeric failures --------------------------------------------------------

class NumericFailure(AwnevError):
    pass


class TruncationExceeded(NumericFailure):
    """Infinite-product tail bound not met within max_terms."""


class SelfCheckFailed(NumericFailure):
    """Symbolic and numeric evaluations of the same object disagree."""


class RootNotFound(NumericFailure):
    pass


class VerificationFailed(NumericFailure):
    pass


class PhaseJumpTooLarge(NumericFailure):
    """Argument-principle refinement exhausted without resolving the phase."""


class QuadratureNonconvergent(NumericFailure):
    pass


# --- precondition violations -------------------------------------------------

class PreconditionError(AwnevError):
    pass


class DegenerateGenerator(PreconditionError):
    """A lattice generator is zero (or otherwise degenerate)."""


class PoleHit(PreconditionError):
    """Evaluation point coincides with a pole of the function."""


class BranchDegenerate(PreconditionError):
    """x = +-1 branch point could not be resolved."""


class ContourTooClose(PreconditionError):
    """A zero/pole sits too close to the integration contour."""


class GridTooSmall(PreconditionError):
    """Radius grid does not span enough decades for a limit estimate."""


class OutOfRange(PreconditionError):
    """Input outside the validity region of an asymptotic estimate."""
