"""Payload digests: the byte-identity probe for task results.

Two runs of the same spec are the same result exactly when their
payloads' canonical JSON is the same, so a digest of that rendering is
what equivalence tests, goldens and the measurement spine compare.
"""

from __future__ import annotations

from typing import Any

from repro.runner.spec import canonical_json, stable_digest


def payload_digest(payload: Any) -> str:
    """Hex SHA-256 of a payload's canonical JSON (byte-identity probe)."""
    return stable_digest(canonical_json(payload))
