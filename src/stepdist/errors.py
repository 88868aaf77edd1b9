"""Exception hierarchy shared by all stepdist modules."""


class StepDistError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(StepDistError):
    """A value failed construction-time validation."""


class DegenerateRange(ValidationError):
    """The function is constant, so it cannot be rescaled to a CDF."""


class AlphaOutOfRange(StepDistError):
    """A probability level was outside the open interval (0, 1)."""


class LambdaOutOfRange(StepDistError):
    """An interpolation weight was outside its admissible range."""


class TransformOutOfRange(StepDistError):
    """The transformed value hit 0 or 1, where the left quantile is undefined."""


class LengthMismatch(StepDistError):
    """A per-jump vector did not match the number of jump points."""


class AlphaNotInJumpInterval(StepDistError):
    """A level was not strictly inside the open jump interval it was matched to.

    ``index`` identifies the offending coordinate.
    """

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"level at index {index} not inside its open jump interval")


class MalformedInterval(ValidationError):
    """Interval endpoints or flags are inconsistent."""


class StreamCollision(StepDistError):
    """Two sampling roles were given the same random stream."""


class EmptySample(StepDistError):
    """A statistic was requested for an empty sample."""


class DimensionMismatch(StepDistError):
    """Vector arguments disagree on dimension."""


class CountermonotoneDimension(StepDistError):
    """The countermonotone copula exists only in dimension 2."""


class NotAFlatLevel(StepDistError):
    """A level has equal left and right quantiles where a flat piece is required.

    ``index`` identifies the first offending coordinate.
    """

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"coordinate {index}: left and right quantiles coincide")
