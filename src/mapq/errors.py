"""Exception taxonomy shared by all modules.

The CLI maps these onto its exit codes: configuration problems -> 2,
numeric failures -> 3, unstable queues -> 4, copula incompatibility -> 5.
"""


class MapqError(Exception):
    """Base class for all package errors."""


class ConfigError(MapqError):
    """Configuration document failed to parse or validate."""


class MgfDiverged(MapqError):
    """A transform is not finite at theta: it overflows a double, or its
    numerical integration does not certify convergence."""


class NoConvergence(MapqError):
    """A Perron eigensolve failed one of spectral._check's checks: LAPACK's
    eigensolve came back NaN, the dominant eigenvalue is not positive, the
    eigenvectors are not strictly positive, or their relative residual is
    above 1e-10."""


class UnstableQueue(MapqError):
    """Mean arrival rate is not below the mean service rate."""

    def __init__(self, arrival_rate, service_rate):
        self.arrival_rate = arrival_rate
        self.service_rate = service_rate
        super().__init__(
            f"unstable queue: mean arrival {arrival_rate!r} >= mean service {service_rate!r}"
        )


class NoRootInDomain(MapqError):
    """A cgf equation never crosses zero inside the MGF finiteness domain."""


class InconclusiveTail(MapqError, ValueError):
    """Too few tail levels had enough exceedances to fit a decay slope."""


class OutOfUnitInterval(MapqError):
    """Copula argument outside [0, 1]."""


class ZeroMassState(MapqError):
    """Transition extraction requires strictly positive state masses."""


class IncompatibleCopula(MapqError):
    """Copula/marginal pair produced a genuinely negative transition mass."""


class DimensionMismatch(MapqError):
    """Sample matrices must have matching column dimensions and 2 rows or more each."""


class UnknownExperiment(MapqError):
    """Ordering experiment name not recognized."""
