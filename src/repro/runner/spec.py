"""Declarative run specifications with stable content hashes.

A :class:`RunSpec` names one unit of the evaluation — a figure, a
chaos campaign, a workload run — as plain data: a task ``kind`` (the
dispatch key into :data:`repro.runner.tasks.TASKS`), a display ``name``,
a JSON-serializable ``params`` mapping, and an optional explicit
``seed``.  Everything downstream keys off the spec's *content hash*:

* the result cache (spec hash x code fingerprint -> payload);
* the run manifest (outcomes are recorded per spec hash);
* seed derivation — a spec with no explicit seed gets one mixed from
  its own hash, so its RNG stream can never depend on execution order
  or worker assignment.

The hash covers a canonical JSON rendering (sorted keys, no
whitespace, schema-versioned), so semantically identical specs hash
identically regardless of how their params dict was built.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.errors import ConfigurationError

#: Bumped whenever the canonical spec rendering changes shape, so stale
#: cache entries from older layouts can never be misread as current.
SPEC_SCHEMA = 1


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def stable_digest(text: str) -> str:
    """Hex SHA-256 of ``text`` (the repo-wide content-hash primitive)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mix_seed(*parts: object) -> int:
    """Derive a 31-bit RNG seed from arbitrary identity parts.

    Uses SHA-256 (not Python's randomized ``hash()``) so the derivation
    is stable across processes, interpreters, and machines.
    """
    digest = hashlib.sha256(
        "|".join(str(p) for p in parts).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass
class RunSpec:
    """One declarative unit of work for the runner.

    Attributes
    ----------
    kind:
        Task type — a key of :data:`repro.runner.tasks.TASKS`
        (``"figure"``, ``"chaos"``, ``"workload"``, ``"envelope"``,
        ``"selftest"``).
    name:
        Display/output name; figure specs use the figure id so their
        reports land in ``<output>/<name>.txt``.  The name is part of
        the spec's identity (two specs differing only by name hash
        differently).
    params:
        JSON-serializable task parameters.
    seed:
        Explicit RNG seed, or ``None`` to derive one from the spec's
        content hash (see :meth:`effective_seed`).
    """

    kind: str
    name: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise ConfigurationError(
                f"spec kind must be a non-empty string, got {self.kind!r}"
            )
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(
                f"spec name must be a non-empty string, got {self.name!r}"
            )
        try:
            canonical_json(self.params)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"spec params must be JSON-serializable: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def canonical(self) -> str:
        """The canonical JSON rendering the content hash covers."""
        return canonical_json(
            {
                "schema": SPEC_SCHEMA,
                "kind": self.kind,
                "name": self.name,
                "params": self.params,
                "seed": self.seed,
            }
        )

    @property
    def content_hash(self) -> str:
        """Hex SHA-256 over the canonical rendering."""
        return stable_digest(self.canonical())

    def effective_seed(self) -> int:
        """The seed a task should use for this spec's RNG streams.

        The explicit ``seed`` when one was declared (figure specs carry
        their canonical seeds so runner output matches the classic
        harness CLI); otherwise a seed mixed from the spec's own content
        hash — order- and worker-independent by construction.
        """
        if self.seed is not None:
            return self.seed
        return mix_seed(self.content_hash, "seed")

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "params": self.params,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "RunSpec":
        return cls(
            kind=record["kind"],
            name=record["name"],
            params=dict(record.get("params") or {}),
            seed=record.get("seed"),
        )
