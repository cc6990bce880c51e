"""CheckpointStore: atomicity, verification, staleness, policy."""

from __future__ import annotations

import hashlib
import json
import os
import signal

import pytest

from repro.checkpoint import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointConfig,
    CheckpointStore,
    GRACEFUL_EXIT_CODE,
    InterruptFlag,
    KillSwitch,
)
from repro.checkpoint.snapshot import _dumps_payload, payload_checksum
from repro.checkpoint.workload import load_run_snapshot
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    StaleCheckpointError,
)
from repro.obs.context import Observability

FP = "f" * 64
OTHER_FP = "0" * 64


class TestCheckpointStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        payload = {"b": 2, "a": [1.5, None, "x"], "nested": {"z": 1, "a": 2}}
        path = store.save(payload, fingerprint=FP, meta={"step": 7})
        assert path.exists() and store.exists()

        loaded = store.load(fingerprint=FP)
        assert isinstance(loaded, Checkpoint)
        assert loaded.schema == CHECKPOINT_SCHEMA
        assert loaded.payload == payload
        assert loaded.meta == {"step": 7}
        assert loaded.digest == payload_checksum(payload)

    def test_key_order_survives_roundtrip(self, tmp_path):
        # Insertion order is simulation state (float sums accumulate in
        # dict order); the store must never sort it away.
        store = CheckpointStore(tmp_path)
        payload = {"z": 1, "m": 2, "a": 3}
        store.save(payload, fingerprint=FP)
        loaded = store.load(fingerprint=FP)
        assert list(loaded.payload.keys()) == ["z", "m", "a"]

    def test_missing_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load(fingerprint=FP) is None
        assert not store.exists()
        store.clear()  # idempotent on nothing

    def test_clear(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"x": 1}, fingerprint=FP)
        store.clear()
        assert store.load(fingerprint=FP) is None

    def test_save_overwrites_in_place(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"step": 1}, fingerprint=FP)
        store.save({"step": 2}, fingerprint=FP)
        assert store.load(fingerprint=FP).payload == {"step": 2}

    def test_tampered_payload_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"balance": 10}, fingerprint=FP)
        envelope = json.loads(store.path.read_text())
        envelope["payload"]["balance"] = 9999
        store.path.write_text(json.dumps(envelope))

        with pytest.raises(CheckpointError, match="digest"):
            store.load(fingerprint=FP)
        # Lenient (supervised worker) degrades to a fresh start.
        assert store.load(fingerprint=FP, strict=False) is None

    def test_truncated_file_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"x": list(range(100))}, fingerprint=FP)
        raw = store.path.read_text()
        store.path.write_text(raw[: len(raw) // 2])

        with pytest.raises(CheckpointError, match="JSON"):
            store.load(fingerprint=FP)
        assert store.load(fingerprint=FP, strict=False) is None

    def test_missing_envelope_keys_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.path.write_text(json.dumps({"schema": CHECKPOINT_SCHEMA}))
        with pytest.raises(CheckpointError, match="missing"):
            store.load()

    def test_schema_mismatch_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"x": 1}, fingerprint=FP)
        envelope = json.loads(store.path.read_text())
        envelope["schema"] = CHECKPOINT_SCHEMA + 1
        store.path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="schema"):
            store.load(fingerprint=FP)

    def test_a_schema_2_slot_is_refused(self, tmp_path):
        """Schema 2 wrote records, scheduler specs and windows unpacked."""
        assert CHECKPOINT_SCHEMA == 3
        store = CheckpointStore(tmp_path)
        store.save({"x": 1}, fingerprint=FP)
        envelope = json.loads(store.path.read_text())
        envelope["schema"] = 2
        store.path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="schema 2"):
            store.load(fingerprint=FP)

    def test_stale_fingerprint_strict_raises(self, tmp_path):
        # The stale-checkpoint hazard: resuming state written by
        # different code must fail loudly on the strict path.
        store = CheckpointStore(tmp_path)
        store.save({"x": 1}, fingerprint=OTHER_FP)
        with pytest.raises(StaleCheckpointError, match="different"):
            store.load(fingerprint=FP)

    def test_stale_fingerprint_lenient_is_fresh_start(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"x": 1}, fingerprint=OTHER_FP)
        assert store.load(fingerprint=FP, strict=False) is None

    def test_no_fingerprint_check_when_unpinned(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"x": 1}, fingerprint=OTHER_FP)
        assert store.load().payload == {"x": 1}

    def test_nan_state_rejected_at_write(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError):
            store.save({"x": float("nan")}, fingerprint=FP)

    def test_nan_meta_rejected_at_write(self, tmp_path):
        # The whole file is strict JSON, the envelope head included.
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError):
            store.save({"x": 1}, fingerprint=FP, meta={"t": float("nan")})
        assert not store.exists()

    def test_digest_commits_to_payload_bytes_on_disk(self, tmp_path):
        # The payload text in the file is the canonical text the digest
        # covers, byte for byte: it is encoded once and written verbatim.
        store = CheckpointStore(tmp_path)
        payload = {"z": [1.5, None, "x"], "a": {"k": -0.0, "u": "\u00e9"}}
        store.save(payload, fingerprint=FP, meta={"t": 2.0})
        raw = store.path.read_text()
        marker = '"payload": '
        assert raw.count(marker) == 1 and raw.endswith("}")
        body = raw[raw.index(marker) + len(marker) : -1]
        assert body == _dumps_payload(payload)
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        assert digest == json.loads(raw)["digest"] == payload_checksum(payload)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("meta", None),
            ("meta", []),
            ("payload", {"x": float("nan")}),
            ("payload", [1, 2]),
            ("fingerprint", 7),
            ("digest", None),
        ],
    )
    def test_malformed_envelope_strict_raises_lenient_is_none(
        self, tmp_path, key, value
    ):
        store = CheckpointStore(tmp_path)
        meta = {"seed": 0}
        store.save({"x": 1}, fingerprint=FP, meta=meta)
        envelope = json.loads(store.path.read_text())
        envelope[key] = value
        store.path.write_text(json.dumps(envelope))

        with pytest.raises(CheckpointError):
            store.load(fingerprint=FP)
        with pytest.raises(CheckpointError):
            load_run_snapshot(store, FP, meta, strict=True)
        assert store.load(fingerprint=FP, strict=False) is None
        assert load_run_snapshot(store, FP, meta) is None
        # With a trace bound, the reject is an event, not a crash.
        store.bind_observability(Observability())
        assert store.load(fingerprint=FP, strict=False) is None


class TestCheckpointConfig:
    def test_every_steps(self):
        assert CheckpointConfig(every_s=5.0).every_steps(0.1) == 50
        assert CheckpointConfig(every_s=0.05).every_steps(0.1) == 1

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_validation(self, bad):
        with pytest.raises(ConfigurationError):
            CheckpointConfig(every_s=bad)


class TestInterruptFlag:
    def test_latches_first_signal(self):
        flag = InterruptFlag().install()
        try:
            assert not flag.triggered
            os.kill(os.getpid(), signal.SIGTERM)
            assert flag.triggered
            assert flag.signal_name == "SIGTERM"
        finally:
            flag.restore()

    def test_restore_reinstates_previous_handler(self):
        before = signal.getsignal(signal.SIGTERM)
        flag = InterruptFlag().install()
        assert signal.getsignal(signal.SIGTERM) != before
        flag.restore()
        assert signal.getsignal(signal.SIGTERM) == before

    def test_graceful_exit_code_is_tempfail(self):
        assert GRACEFUL_EXIT_CODE == 75


class TestKillSwitch:
    def test_counter_survives_marker_io(self, tmp_path):
        switch = KillSwitch(tmp_path, [5.0, 9.0])
        assert switch.kills_done == 0
        # Before the first point: no kill, no marker.
        switch.maybe_kill(4.99)
        assert not switch.marker_path.exists()
        # A pre-existing marker (a previous attempt died here) counts.
        switch.marker_path.write_text(json.dumps({"kills": 2}))
        assert switch.kills_done == 2
        # All points delivered: reaching later times never kills again.
        switch.maybe_kill(100.0)

    def test_corrupt_marker_reads_as_zero(self, tmp_path):
        switch = KillSwitch(tmp_path, [5.0])
        switch.marker_path.write_text("not json")
        assert switch.kills_done == 0

    def test_reset_rearms_every_point(self, tmp_path):
        switch = KillSwitch(tmp_path, [5.0])
        switch.marker_path.write_text(json.dumps({"kills": 1}))
        switch.reset()
        assert not switch.marker_path.exists()
        assert switch.kills_done == 0
        switch.reset()  # idempotent


class TestCheckpointTraceEvents:
    def _obs(self):
        from repro.obs.context import Observability

        return Observability()

    def test_save_and_restore_emit_checkpoint_events(self, tmp_path):
        from repro.obs.events import Category

        obs = self._obs()
        store = CheckpointStore(tmp_path, obs=obs)
        store.save({"a": 1}, fingerprint=FP, meta={"t": 12.5, "step": 3})
        store.load(fingerprint=FP)
        events = list(obs.trace)
        names = [(e.category, e.name) for e in events]
        assert (Category.CHECKPOINT, "snapshot_write") in names
        assert (Category.CHECKPOINT, "snapshot_restore") in names
        write = next(e for e in events if e.name == "snapshot_write")
        restore = next(e for e in events if e.name == "snapshot_restore")
        # Events carry the snapshot's *virtual* time and its identity.
        assert write.sim_time == 12.5
        assert restore.sim_time == 12.5
        assert write.fields["size"] > 0
        assert len(write.fields["digest"]) == 64
        assert restore.fields["digest"] == write.fields["digest"]

    def test_corrupt_checkpoint_emits_reject_with_reason(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"a": 1}, fingerprint=FP)
        store.path.write_text("this is not json")
        obs = self._obs()
        store.bind_observability(obs)
        assert store.load(fingerprint=FP, strict=False) is None
        reject = next(e for e in list(obs.trace) if e.name == "snapshot_reject")
        assert reject.fields["reason"] == "CheckpointError"
        assert reject.fields["size"] > 0

    def test_stale_checkpoint_emits_reject(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"a": 1}, fingerprint=FP)
        obs = self._obs()
        store.bind_observability(obs)
        assert store.load(fingerprint=OTHER_FP, strict=False) is None
        reject = next(e for e in list(obs.trace) if e.name == "snapshot_reject")
        assert reject.fields["reason"] == "StaleCheckpointError"

    def test_unbound_store_stays_silent(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"a": 1}, fingerprint=FP)
        assert store.load(fingerprint=FP) is not None  # no obs, no crash
