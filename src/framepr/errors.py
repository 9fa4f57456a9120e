"""Exception types raised across the package."""


class FramePRError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(FramePRError):
    """Operands have incompatible shapes."""


class NotHermitian(FramePRError):
    """Matrix fails the self-adjointness check."""


class NonFiniteMeasurement(FramePRError):
    """A measurement is NaN or infinite."""


class NoConvergence(FramePRError):
    """Iterative routine exhausted its budget without meeting tolerance."""


class IndefiniteOperator(FramePRError):
    """A direction of negative curvature was detected in a PSD solve."""


class OddDimension(FramePRError):
    """Real vector of odd length cannot be paired into complex entries."""


class RankDeficient(FramePRError):
    """Vector set does not span the ambient space."""


class BudgetExceeded(FramePRError):
    """Combinatorial or iteration budget exceeded."""


class CombinatorialBudgetExceeded(BudgetExceeded):
    """Subset enumeration would exceed the configured cap."""


class InvalidPartition(FramePRError):
    """Partition does not satisfy the required span conditions."""


class ZeroVector(FramePRError):
    """Nonzero vector required."""


class OrthogonalAnchor(FramePRError):
    """Anchor vector is orthogonal to the signal; phase cannot be pinned."""


class NotPhaseRetrievable(FramePRError):
    """Frame fails a phase-retrievability precondition."""


class InsufficientRedundancy(FramePRError):
    """Rank-one measurement forms do not span the lifted matrix space."""


class QuadratureError(FramePRError):
    """Numerical integration failed to reach the requested accuracy."""


class ConfigError(FramePRError):
    """Experiment configuration is malformed or inconsistent."""
