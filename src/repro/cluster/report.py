"""The merged result of a sharded run, and what its checksum covers.

A :class:`ClusterReport` wraps the canonical merged payload produced by
:func:`repro.workload.driver.merge_report_payloads` plus *telemetry*
about how the run executed (shard count, snapshot intervals,
respawns).
The determinism contract draws the line between the two: the checksum
covers **only** the merged payload, which is a pure function of
``(scenario, seed)`` — shard count, respawns, and wall time
are execution details and must never leak into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.workload.driver import merged_checksum


@dataclass(frozen=True)
class ClusterReport:
    """Merged workload report + execution telemetry for one cluster run."""

    merged: dict[str, Any]
    shards: int
    telemetry: dict[str, Any] = field(default_factory=dict)

    @property
    def offered(self) -> int:
        return int(self.merged["offered"])

    @property
    def violation_rate(self) -> float:
        return float(self.merged["violation_rate"])

    @property
    def scenario(self) -> str:
        return str(self.merged["scenario"])

    @property
    def seed(self) -> int:
        return int(self.merged["seed"])

    @property
    def partitions(self) -> tuple[str, ...]:
        return tuple(self.merged["partitions"])

    def checksum(self) -> str:
        """Digest of the merged payload only — shard-count-independent."""
        return merged_checksum(self.merged)

    def to_dict(self) -> dict[str, Any]:
        """Full JSON form; ``merged`` is the checksummed part."""
        return {
            "merged": self.merged,
            "checksum": self.checksum(),
            "shards": self.shards,
            "telemetry": dict(self.telemetry),
        }

    def render(self) -> str:
        m = self.merged
        lines = [
            f"cluster run of {m['scenario']!r} "
            f"(seed={m['seed']}, shards={self.shards}):",
            f"  partitions {', '.join(self.partitions)}",
            f"  offered={m['offered']} admitted={m['admitted']} "
            f"degraded={m['degraded']} rejected={m['rejected']}",
            f"  violation_rate={m['violation_rate']:.4f} "
            f"delivered={m['delivered_megabits']:.1f} Mb",
        ]
        if self.telemetry:
            extras = ", ".join(
                f"{k}={v}" for k, v in sorted(self.telemetry.items())
            )
            lines.append(f"  telemetry {extras}")
        return "\n".join(lines)


def cluster_report_from_payloads(
    payloads: Mapping[str, Mapping[str, Any]],
    shards: int,
    telemetry: Mapping[str, Any],
) -> ClusterReport:
    """Merge per-partition payloads into one :class:`ClusterReport`."""
    from repro.workload.driver import merge_report_payloads

    return ClusterReport(
        merged=merge_report_payloads(payloads),
        shards=shards,
        telemetry=dict(telemetry),
    )
