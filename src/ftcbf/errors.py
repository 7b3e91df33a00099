"""Exception taxonomy for the toolkit.

Contract violations (bad dimensions, invalid configuration) raise eagerly at
construction time; numerical failures carry enough context to diagnose the
offending matrix or scenario block.
"""


class FtcbfError(Exception):
    """Base class for all toolkit errors."""


class ContractError(FtcbfError):
    """Dimension mismatch or invariant violation in a domain type."""


class ScenarioValidationError(FtcbfError):
    """Scenario file or config block is inconsistent (e.g. attack support
    outside the declared fault pattern)."""


class EstimatorConfigError(FtcbfError):
    """Estimator cannot be built, e.g. singular reduced measurement noise."""


class DetectabilityError(FtcbfError):
    """No stabilizing Riccati solution: a mode of F that does not decay is
    unobservable (PBH test) or, as an imaginary-axis eigenvalue of the
    Hamiltonian, unreached by Q (each named), or P fails its residual check."""


class LyapunovError(FtcbfError):
    """Lyapunov linear system is singular; names the eigenvalue pair."""


class UncontrollableBarrierError(FtcbfError):
    """No relative degree found up to n + 2: control never enters the
    barrier derivative chain."""


class RedundancyError(FtcbfError):
    """An actuator failure pattern admits no relative degree: the failed
    configuration has no control authority over the barrier."""


class SolverError(FtcbfError):
    """Numerical failure inside the QP/LP solver (distinct from a certified
    infeasibility, which is a regular result)."""
