"""Exception types shared across the package.

Two families: ``ValidationError`` for rejected inputs (bad plants, gains,
frequencies, scenario files) and ``ComputationError`` for runs that start
from valid inputs but fail numerically (divergence, failed residual or
spectral checks).  The CLI maps the families to exit codes 1 and 2.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """Input rejected before any computation was attempted."""


class DimensionMismatch(ValidationError):
    pass


class NonSymmetricHessian(ValidationError):
    pass


class NonPositiveDefiniteHessian(ValidationError):
    pass


class ZeroBarrierGradient(ValidationError):
    pass


class NonPositiveDelta(ValidationError):
    pass


class NonPositiveAmplitude(ValidationError):
    pass


class NonPositiveTolerance(ValidationError):
    pass


class NonPositiveTrials(ValidationError):
    """A property suite asked to run fewer than one trial."""


class NonFiniteValue(ValidationError):
    """A number that must be finite is infinite or NaN."""


class TooManySteps(ValidationError):
    """A horizon over its step takes more steps than a run may."""


class DuplicateFrequency(ValidationError):
    def __init__(self, i: int, j: int):
        super().__init__(f"dither frequencies {i} and {j} are equal")
        self.indices = (i, j)


class ResonantTriple(ValidationError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(
            f"dither frequencies {i} + {j} = {k}; sums of pairs must not "
            "collide with another frequency"
        )
        self.indices = (i, j, k)


class NotScalar(ValidationError):
    """The Newton-based variant is defined for a single parameter only."""


class EmptyTrajectory(ValidationError):
    pass


class UnusableOutput(ValidationError):
    """An output directory that cannot be made or written into."""


class ParseError(ValidationError):
    def __init__(self, line: int | None, message: str):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line


class ComputationError(RuntimeError):
    """A numerical procedure failed on otherwise valid inputs."""


class NonFiniteState(ComputationError):
    def __init__(self, time: float, partial=None):
        super().__init__(f"state became non-finite at t={time:.6g}")
        self.time = time
        self.partial = partial  # trajectory recorded up to the failure


class NonFiniteEntry(ComputationError):
    pass


class QuadratureFailure(ComputationError):
    pass


class WarmupTimeout(ComputationError):
    pass


class ResidualTooLarge(ComputationError):
    pass


class PairingFailure(ComputationError):
    pass


class HurwitzViolation(ComputationError):
    pass
