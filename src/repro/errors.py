"""Exception hierarchy for the IQ-Paths reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with one handler.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class AdmissionError(ReproError):
    """Raised when a stream cannot be admitted with its requested guarantee.

    Mirrors the paper's *upcall* made to the application when no single path
    nor any split across paths can satisfy the stream's utility requirement
    (Section 5.2.2).  The application may catch this and retry with a lower
    probability requirement or bandwidth.
    """

    def __init__(self, stream_name: str, message: str = ""):
        self.stream_name = stream_name
        detail = f": {message}" if message else ""
        super().__init__(
            f"stream {stream_name!r} cannot be scheduled with the requested "
            f"guarantee{detail}"
        )


class TopologyError(ReproError):
    """Raised for malformed topologies or unknown nodes/links/paths."""


class TraceError(ReproError):
    """Raised for malformed or unreadable trace data."""


class SimulationError(ReproError):
    """Raised when the discrete-event engine is misused."""


class CheckpointError(ReproError):
    """Raised for unreadable, corrupt, or unrestorable checkpoints."""


class StaleCheckpointError(CheckpointError):
    """Raised when a checkpoint's code fingerprint no longer matches.

    Resuming across a code change could silently diverge from a clean
    run, so explicit resume requests fail loudly with this error; callers
    that prefer to fall back to a fresh start catch it (or use the
    store's non-strict loader).
    """


class ClusterError(ReproError):
    """Raised when a sharded run cannot complete.

    Covers a partition whose task failed or exhausted its respawn
    budget.
    """


class ClusterProtocolError(ClusterError):
    """Raised on malformed frames: unparseable, oversized or torn.

    The frame codec is deterministic; a bad frame is a bug, never
    something to paper over.
    """
