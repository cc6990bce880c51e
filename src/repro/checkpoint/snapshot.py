"""Versioned, digest-verified, atomically-written checkpoints.

A checkpoint file is a JSON envelope::

    {
      "schema": 3,
      "fingerprint": "<code fingerprint at write time>",
      "meta": {...},          # small, human-inspectable context
      "digest": "<sha256 of the serialized payload>",
      "payload": {...}        # the state_dict tree
    }

Three properties matter:

* **Atomic.**  Writes go through :func:`repro.fsutil.atomic_write_text`
  (temp file + fsync + rename), so a crash mid-write leaves the previous
  checkpoint intact — there is never a torn snapshot on disk.
* **Verified.**  ``digest`` commits to the payload bytes, and those
  bytes are exactly the payload text in the file: a save encodes the
  payload once, hashes that text and writes it verbatim as the last
  envelope member.  A load re-serializes the parsed payload and
  compares.  Bit-rot, truncation, or hand-editing is detected, never
  silently resumed.  The whole file is strict JSON: a NaN anywhere in
  the envelope raises at write time.
* **Order-preserving.**  The payload is serialized with
  ``sort_keys=False``: dict iteration order is part of the simulation's
  determinism (float sums accumulate in insertion order), so the
  serialization must not reorder what the ``state_dict`` methods
  deliberately ordered.

Staleness: the envelope records the runner code fingerprint
(:func:`repro.runner.fingerprint.code_fingerprint`).  Resuming a
checkpoint across a code change is undefined behaviour — state layouts
may have shifted — so a strict load raises
:class:`~repro.errors.StaleCheckpointError` on mismatch, and a lenient
load treats the checkpoint as absent (fresh start).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.errors import CheckpointError, StaleCheckpointError
from repro.fsutil import atomic_write_text
from repro.obs.context import NULL_OBS, Observability
from repro.obs.events import Category

#: Envelope layout version; bumped whenever the payload tree changes shape.
CHECKPOINT_SCHEMA = 3


def _dumps_payload(payload: Mapping[str, Any]) -> str:
    """The canonical byte form the digest commits to.

    ``sort_keys=False`` preserves ``state_dict`` insertion order;
    ``allow_nan=False`` keeps the file strict JSON (NaN state would be
    a bug upstream, better caught at write time).  A payload is a tree
    of fresh ``state_dict`` containers, so the encoder's cycle check
    (an id table of every container) is skipped.
    """
    return json.dumps(
        payload,
        sort_keys=False,
        separators=(",", ":"),
        allow_nan=False,
        check_circular=False,
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def payload_checksum(payload: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical serialized payload."""
    return _sha256(_dumps_payload(payload))


@dataclass(frozen=True)
class Checkpoint:
    """One verified checkpoint, as loaded from disk."""

    schema: int
    fingerprint: str
    meta: dict[str, Any]
    payload: dict[str, Any]
    digest: str


class CheckpointStore:
    """Atomic single-slot checkpoint persistence under one directory.

    One store holds the *latest* checkpoint of one run (the atomic
    rename makes "latest" always a complete snapshot; older snapshots
    are superseded in place).  The directory may also carry sidecar
    files owned by other layers (e.g. the kill-injection marker), which
    the store ignores.
    """

    FILENAME = "checkpoint.json"

    def __init__(
        self,
        root: Union[str, Path],
        obs: Optional[Observability] = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._obs = obs if obs is not None else NULL_OBS

    def bind_observability(self, obs: Optional[Observability]) -> None:
        """Attach a run's obs context so snapshot events land on its bus.

        The store is often constructed (by a CLI) before the run's
        observability exists; rebinding here keeps construction order
        flexible.  Snapshot events carry the *virtual* time the snapshot
        captured (``meta["t"]``), so resume points line up with the
        simulation timeline in causal chains.
        """
        self._obs = obs if obs is not None else NULL_OBS

    @property
    def path(self) -> Path:
        return self.root / self.FILENAME

    def exists(self) -> bool:
        return self.path.exists()

    # ------------------------------------------------------------------
    # write
    # ------------------------------------------------------------------
    def save(
        self,
        payload: Mapping[str, Any],
        *,
        fingerprint: str,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> Path:
        """Atomically persist ``payload`` as the latest checkpoint.

        The payload is encoded once: the digest covers that text, and
        the file carries it verbatim after the small envelope head.
        """
        body = _dumps_payload(payload)
        digest = _sha256(body)
        meta = dict(meta) if meta else {}
        head = json.dumps(
            {
                "schema": CHECKPOINT_SCHEMA,
                "fingerprint": fingerprint,
                "meta": meta,
                "digest": digest,
            },
            sort_keys=False,
            allow_nan=False,
        )
        serialized = "".join((head[:-1], ', "payload": ', body, "}"))
        with self._obs.prof.span("checkpoint.save"):
            atomic_write_text(self.path, serialized)
        if self._obs.enabled:
            self._obs.trace.emit(
                float(meta.get("t", 0.0)),
                Category.CHECKPOINT,
                "snapshot_write",
                size=len(serialized),
                digest=digest,
            )
        return self.path

    def clear(self) -> None:
        """Remove the checkpoint (a finished run must not be resumed)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    # read
    # ------------------------------------------------------------------
    def load(
        self,
        *,
        fingerprint: Optional[str] = None,
        strict: bool = True,
    ) -> Optional[Checkpoint]:
        """Load and verify the latest checkpoint.

        Returns ``None`` when no checkpoint exists.  With
        ``strict=True`` (the explicit ``--resume`` path), a corrupt
        envelope raises :class:`CheckpointError` and a code-fingerprint
        mismatch raises :class:`StaleCheckpointError` — resuming must
        fail loudly, not quietly recompute something different.  With
        ``strict=False`` (a supervised worker restarting itself), any
        unusable checkpoint degrades to ``None`` so the worker falls
        back to a fresh, still-deterministic run.
        """
        try:
            raw = self.path.read_text()
        except FileNotFoundError:
            return None
        try:
            with self._obs.prof.span("checkpoint.load"):
                checkpoint = self._verify(raw)
            if (
                fingerprint is not None
                and checkpoint.fingerprint != fingerprint
            ):
                raise StaleCheckpointError(
                    f"checkpoint {self.path} was written by different "
                    f"code (fingerprint {checkpoint.fingerprint[:12]}..., "
                    f"current {fingerprint[:12]}...); resuming across a "
                    "code change is unsafe — delete the checkpoint or "
                    "rerun from scratch"
                )
        except CheckpointError as exc:
            if self._obs.enabled:
                self._obs.trace.emit(
                    0.0,
                    Category.CHECKPOINT,
                    "snapshot_reject",
                    size=len(raw),
                    reason=type(exc).__name__,
                )
            if strict:
                raise
            return None
        if self._obs.enabled:
            self._obs.trace.emit(
                float(checkpoint.meta.get("t", 0.0)),
                Category.CHECKPOINT,
                "snapshot_restore",
                size=len(raw),
                digest=checkpoint.digest,
            )
        return checkpoint

    def _verify(self, raw: str) -> Checkpoint:
        try:
            envelope = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint {self.path} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(envelope, dict):
            raise CheckpointError(
                f"checkpoint {self.path}: envelope must be an object"
            )
        missing = {
            "schema",
            "fingerprint",
            "meta",
            "digest",
            "payload",
        } - envelope.keys()
        if missing:
            raise CheckpointError(
                f"checkpoint {self.path} is missing {sorted(missing)}"
            )
        if envelope["schema"] != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint {self.path} has schema {envelope['schema']}; "
                f"this code reads schema {CHECKPOINT_SCHEMA}"
            )
        for key, kind in (
            ("fingerprint", str),
            ("meta", dict),
            ("digest", str),
            ("payload", dict),
        ):
            if not isinstance(envelope[key], kind):
                raise CheckpointError(
                    f"checkpoint {self.path}: {key!r} must be a "
                    f"{kind.__name__}, got {type(envelope[key]).__name__}"
                )
        try:
            digest = payload_checksum(envelope["payload"])
        except ValueError as exc:
            raise CheckpointError(
                f"checkpoint {self.path}: payload is not strict JSON: {exc}"
            ) from exc
        if digest != envelope["digest"]:
            raise CheckpointError(
                f"checkpoint {self.path} failed digest verification "
                f"(stored {envelope['digest'][:12]}..., computed "
                f"{digest[:12]}...); refusing to resume corrupt state"
            )
        return Checkpoint(
            schema=int(envelope["schema"]),
            fingerprint=envelope["fingerprint"],
            meta=envelope["meta"],
            payload=envelope["payload"],
            digest=envelope["digest"],
        )
