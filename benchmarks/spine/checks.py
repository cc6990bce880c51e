"""Correctness checks the benchmark applies to what the program returns.

Each checker returns a list of problems (empty when the output is
right), asserted from outside the program: the reports' own arithmetic,
not a second implementation of the simulator.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

_TENANT_SUMS = (
    "offered", "admitted", "degraded", "rejected", "violations",
)


def check_report(payload: Mapping[str, Any]) -> list[str]:
    """Accounting of one ``WorkloadReport.to_dict()`` (or merged) payload."""
    problems = []
    offered = payload["offered"]
    outcomes = payload["admitted"] + payload["degraded"] + payload["rejected"]
    if offered != outcomes:
        problems.append(
            f"offered {offered} != admitted + degraded + rejected {outcomes}"
        )
    sessions = payload["sessions"]
    if len(sessions) != offered:
        problems.append(
            f"{len(sessions)} session records for {offered} offered"
        )
    tenants = payload["tenants"].values()
    for key in _TENANT_SUMS:
        total = sum(t[key] for t in tenants)
        if total != payload[key]:
            problems.append(
                f"per-tenant {key} sum to {total}, report says "
                f"{payload[key]}"
            )
    shed = sum(t["shed"] for t in tenants)
    if shed != payload["shed_sessions"]:
        problems.append(
            f"per-tenant shed sum to {shed}, report says "
            f"{payload['shed_sessions']}"
        )
    opened = payload["admitted"] + payload["degraded"]
    ended = payload["closed"] + payload["truncated"]
    if opened != ended:
        problems.append(
            f"{opened} sessions opened but {ended} closed or truncated"
        )
    for key in ("admitted", "degraded", "rejected"):
        counted = sum(1 for s in sessions if s["outcome"] == key)
        if counted != payload[key]:
            problems.append(
                f"{counted} session records are {key}, report says "
                f"{payload[key]}"
            )
    if offered:
        rate = (
            payload["rejected"] + payload["degraded"] + payload["violations"]
        ) / offered
        if abs(rate - payload["violation_rate"]) > 1e-6:
            problems.append(
                f"violation_rate {payload['violation_rate']} is not "
                f"{rate:.6f}"
            )
    return problems


def check_conservation(
    delivered_mbps: np.ndarray,
    available_mbps: Sequence[np.ndarray],
    rel_tol: float = 1e-9,
) -> list[str]:
    """Per step, what all streams received <= what all paths offered."""
    offered = np.sum(available_mbps, axis=0)
    excess = delivered_mbps - offered * (1.0 + rel_tol)
    worst = int(np.argmax(excess))
    if excess[worst] > 0:
        return [
            f"step {worst}: delivered {delivered_mbps[worst]:.6f} Mbps, "
            f"paths offered {offered[worst]:.6f} Mbps"
        ]
    return []


def check_same(label: str, digests: Sequence[str]) -> list[str]:
    """Every run of one input must give the same bytes."""
    if len(set(digests)) > 1:
        return [f"{label}: digests differ: {sorted(set(digests))}"]
    return []
