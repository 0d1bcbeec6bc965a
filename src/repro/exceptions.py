"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so that callers can
catch everything coming out of the reproduction code with a single handler
while still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """An experiment, algorithm, or model was configured inconsistently."""


class ShapeError(ReproError):
    """An array had an unexpected shape or dimensionality."""


class PartitionError(ReproError):
    """A dataset partition could not be constructed as requested."""


class ConvergenceError(ReproError):
    """A convergence-theory helper was queried outside its valid regime."""


class SimulationError(ReproError):
    """The federated simulation engine reached an invalid state."""


class ProtocolError(ReproError):
    """A wire payload was malformed, inconsistent, or mismatched its template.

    Raised at trust boundaries (the :mod:`repro.serve` protocol layer and
    :meth:`repro.systems.compression.Codec.unpack`) where a payload arrives
    from another process and cannot be assumed well-formed.  Carries an
    optional machine-readable ``code`` so the serve layer can map the failure
    onto an HTTP status.
    """

    def __init__(self, message: str, code: str = "malformed"):
        super().__init__(message)
        self.code = code
