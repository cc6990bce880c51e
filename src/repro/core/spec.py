"""Stream utility specifications.

Applications specify stream utility either as a minimum bandwidth or as a
Window-Constraint (Section 5.1, following DWCS [31]): ``y`` consecutive
packet arrivals per fixed window of which at least ``x`` must be serviced.
Both forms are augmented with the paper's probabilistic requirement: the
constraint must hold with some large probability ``P``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.units import DEFAULT_PACKET_SIZE, packets_per_window, rate_of_packets

#: Sorts after every probabilistic ``StreamSpec.mapping_precedence`` and
#: before every violation bound's: where the probabilistic guarantees of
#: a precedence-ordered list end.
FIRST_VIOLATION_BOUND = (1,)


@dataclass(frozen=True)
class WindowConstraint:
    """DWCS-style constraint: serve >= ``x`` of every ``y`` packets."""

    x: int
    y: int

    def __post_init__(self):
        if self.y < 1:
            raise ConfigurationError(f"y must be >= 1, got {self.y}")
        if not 0 <= self.x <= self.y:
            raise ConfigurationError(
                f"x must be in [0, y={self.y}], got {self.x}"
            )

    @property
    def fraction(self) -> float:
        """Minimum fraction of packets that must be serviced, ``x / y``."""
        return self.x / self.y


@dataclass(frozen=True)
class StreamSpec:
    """Utility specification for one application stream.

    Attributes
    ----------
    name:
        Stream identity (unique within an experiment).
    required_mbps:
        Minimum bandwidth the stream needs.  ``None`` for purely
        best-effort/elastic streams.
    probability:
        The paper's ``P``: the minimum bandwidth must be received at least
        ``100 * P`` % of the time.  ``None`` means best-effort.
    elastic:
        Elastic streams absorb any leftover bandwidth beyond
        ``required_mbps`` (GridFTP's DT3, SmartPointer's Bond2).
    nominal_mbps:
        For elastic streams, the nominal demand used as a fair-queuing
        weight by the baselines (an elastic source can always fill this
        much).  Defaults to ``required_mbps`` when unset.
    packet_size:
        Packet size in bytes used to carve the stream into schedulable
        units.
    window_constraint:
        Optional DWCS-style (x, y) constraint; ``x`` packets per window is
        derived from ``required_mbps`` when absent.
    max_violation_rate:
        Optional violation-bound requirement: maximum acceptable expected
        fraction of packets missing their deadline per window (Lemma 2
        guarantees).  ``None`` selects purely probabilistic guarantees.
    max_rtt_ms:
        Optional RTT ceiling: the stream may only be mapped to paths whose
        monitored RTT stays below this (at the stream's probability, or
        95 % for best-effort streams).  Control/steering traffic uses
        this (Section 1's "stronger guarantees for control traffic").
    max_loss_rate:
        Optional loss-rate ceiling, analogous (the paper's future-work
        "message loss rate service guarantees").

    ``mapping_precedence`` (derived, not a field) is where
    :func:`repro.core.mapping.compute_mapping` places the stream:
    probabilistic guarantees first, P descending, then violation bounds,
    tightest first; within either, the bigger required rate first (it
    is harder to place).  Equal keys keep input order.  ``None`` for a
    purely elastic stream, which the placement fold does not place.
    """

    name: str
    required_mbps: Optional[float] = None
    probability: Optional[float] = None
    elastic: bool = False
    nominal_mbps: Optional[float] = None
    packet_size: int = DEFAULT_PACKET_SIZE
    window_constraint: Optional[WindowConstraint] = None
    max_violation_rate: Optional[float] = None
    max_rtt_ms: Optional[float] = None
    max_loss_rate: Optional[float] = None

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("stream name must be non-empty")
        if self.required_mbps is not None and self.required_mbps <= 0:
            raise ConfigurationError(
                f"required_mbps must be positive, got {self.required_mbps}"
            )
        if self.probability is not None and not 0.0 < self.probability < 1.0:
            raise ConfigurationError(
                f"probability must be in (0, 1), got {self.probability}"
            )
        if self.probability is not None and self.required_mbps is None:
            raise ConfigurationError(
                f"stream {self.name!r}: a probability requires required_mbps"
            )
        if self.packet_size <= 0:
            raise ConfigurationError(
                f"packet_size must be positive, got {self.packet_size}"
            )
        if self.nominal_mbps is not None and self.nominal_mbps <= 0:
            raise ConfigurationError(
                f"nominal_mbps must be positive, got {self.nominal_mbps}"
            )
        if self.max_violation_rate is not None and not (
            0.0 <= self.max_violation_rate < 1.0
        ):
            raise ConfigurationError(
                f"max_violation_rate must be in [0, 1), got "
                f"{self.max_violation_rate}"
            )
        if not self.elastic and self.required_mbps is None:
            raise ConfigurationError(
                f"stream {self.name!r}: non-elastic streams need required_mbps"
            )
        if self.max_rtt_ms is not None and self.max_rtt_ms <= 0:
            raise ConfigurationError(
                f"max_rtt_ms must be positive, got {self.max_rtt_ms}"
            )
        if self.max_loss_rate is not None and not (
            0.0 <= self.max_loss_rate <= 1.0
        ):
            raise ConfigurationError(
                f"max_loss_rate must be in [0, 1], got {self.max_loss_rate}"
            )
        # Not a field: derived, so equality, hashing and the dict form
        # ignore it.
        if self.max_violation_rate is not None:
            key = (
                *FIRST_VIOLATION_BOUND,
                self.max_violation_rate,
                -(self.required_mbps or 0.0),
            )
        elif self.probability is not None:
            key = (0, -self.probability, -(self.required_mbps or 0.0))
        else:
            key = None
        object.__setattr__(self, "mapping_precedence", key)

    # ------------------------------------------------------------------
    # serialization (checkpointing / spec transport)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON form of the spec (exact field round trip)."""
        wc = self.window_constraint
        return {
            "name": self.name,
            "required_mbps": self.required_mbps,
            "probability": self.probability,
            "elastic": self.elastic,
            "nominal_mbps": self.nominal_mbps,
            "packet_size": self.packet_size,
            "window_constraint": None if wc is None else [wc.x, wc.y],
            "max_violation_rate": self.max_violation_rate,
            "max_rtt_ms": self.max_rtt_ms,
            "max_loss_rate": self.max_loss_rate,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StreamSpec":
        """Inverse of :meth:`to_dict`."""
        wc = data.get("window_constraint")
        return cls(
            name=data["name"],
            required_mbps=data.get("required_mbps"),
            probability=data.get("probability"),
            elastic=bool(data.get("elastic", False)),
            nominal_mbps=data.get("nominal_mbps"),
            packet_size=int(data.get("packet_size", DEFAULT_PACKET_SIZE)),
            window_constraint=(
                None if wc is None else WindowConstraint(int(wc[0]), int(wc[1]))
            ),
            max_violation_rate=data.get("max_violation_rate"),
            max_rtt_ms=data.get("max_rtt_ms"),
            max_loss_rate=data.get("max_loss_rate"),
        )

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def guaranteed(self) -> bool:
        """Whether this stream carries a probabilistic guarantee."""
        return self.probability is not None

    @property
    def weight(self) -> float:
        """Fair-queuing weight: target rate (or nominal rate if elastic)."""
        if self.required_mbps is not None and not self.elastic:
            return self.required_mbps
        if self.nominal_mbps is not None:
            return self.nominal_mbps
        if self.required_mbps is not None:
            return self.required_mbps
        raise ConfigurationError(
            f"stream {self.name!r}: elastic stream needs nominal_mbps for a "
            "fair-queuing weight"
        )

    @property
    def demand_mbps(self) -> Optional[float]:
        """Arrival rate: the stream's offered load per second.

        ``None`` means unbounded (an elastic source that always has data).
        """
        if self.elastic:
            return None
        return self.required_mbps

    def packets_in_window(self, tw: float) -> int:
        """The paper's ``x_i``: packets to service per scheduling window.

        For guaranteed streams this derives from ``required_mbps`` (or the
        explicit window constraint); for purely elastic streams it falls
        back to ``nominal_mbps`` — the pacing quantum their producers use.
        """
        if self.window_constraint is not None and self.required_mbps is None:
            return self.window_constraint.x
        rate = self.required_mbps
        if rate is None:
            rate = self.nominal_mbps
        if rate is None:
            raise ConfigurationError(
                f"stream {self.name!r} has no bandwidth requirement"
            )
        return packets_per_window(rate, self.packet_size, tw)

    def rate_from_packets(self, packets: float, tw: float) -> float:
        """Mbps corresponding to ``packets`` packets per window."""
        return rate_of_packets(packets, self.packet_size, tw)
