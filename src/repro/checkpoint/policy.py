"""When to snapshot, and how to stop without losing work.

:class:`CheckpointConfig` fixes the snapshot cadence in *virtual*
seconds — checkpoints land at deterministic step boundaries, so the
same run always snapshots at the same points regardless of host speed.

:class:`InterruptFlag` is the cooperative half of graceful shutdown:
it latches ``SIGINT``/``SIGTERM`` instead of dying mid-step, the run
loop polls it between steps, flushes a final checkpoint, and the CLI
exits with :data:`GRACEFUL_EXIT_CODE` (75, ``EX_TEMPFAIL``: "try again
later" — the conventional code for a transient, resumable stop).

:class:`KillSwitch` is its uncooperative twin, the kill injector behind
``--kill-at``: it SIGKILLs its own process at planned virtual times, so
resume is proven against real crashes, not polite exceptions.
"""

from __future__ import annotations

import json
import os
import signal
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.errors import ConfigurationError, ReproError
from repro.fsutil import atomic_write_text

#: Exit code for "interrupted but checkpointed; rerun to resume"
#: (BSD ``EX_TEMPFAIL``).
GRACEFUL_EXIT_CODE = 75


@dataclass(frozen=True)
class CheckpointConfig:
    """Snapshot policy for one checkpointed run.

    ``every_s`` is measured on the simulation clock: a snapshot is
    taken after each step that completes a multiple of ``every_s``
    virtual seconds.  Cadence therefore never depends on wall-clock
    jitter, and two runs of the same spec checkpoint at identical
    steps.
    """

    every_s: float = 5.0

    def __post_init__(self):
        if self.every_s <= 0:
            raise ConfigurationError(
                f"every_s must be positive, got {self.every_s}"
            )

    def every_steps(self, dt: float) -> int:
        """Snapshot period in delivery steps (at least one)."""
        return max(1, int(round(self.every_s / dt)))


class RunInterrupted(ReproError):
    """A run stopped cooperatively after flushing a checkpoint.

    Carries where the run stopped so the CLI can report resume
    instructions; the checkpoint on disk holds the actual state.
    """

    def __init__(self, message: str, *, steps_done: int, t: float):
        super().__init__(message)
        self.steps_done = steps_done
        self.t = t


class InterruptFlag:
    """Latching SIGINT/SIGTERM handler for cooperative shutdown.

    Usage::

        flag = InterruptFlag()
        flag.install()
        try:
            ...  # long run polling flag.triggered between steps
        finally:
            flag.restore()

    The first signal sets the flag; a second signal of the same kind
    falls through to the previously-installed handler (for SIGINT that
    is ``KeyboardInterrupt``), so a stuck run can still be killed by
    pressing Ctrl-C twice.
    """

    def __init__(self):
        self._triggered = False
        self._signum: Optional[int] = None
        self._previous: dict[int, object] = {}

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def signal_name(self) -> Optional[str]:
        if self._signum is None:
            return None
        return signal.Signals(self._signum).name

    def _handle(
        self, signum: int, frame: Optional[types.FrameType]
    ) -> None:
        if self._triggered:
            previous = self._previous.get(signum)
            if callable(previous):
                previous(signum, frame)
                return
            if previous is signal.SIG_DFL:
                signal.signal(signum, signal.SIG_DFL)
                signal.raise_signal(signum)
            return
        self._triggered = True
        self._signum = signum

    def install(
        self,
        signals: tuple[signal.Signals, ...] = (
            signal.SIGINT,
            signal.SIGTERM,
        ),
    ) -> "InterruptFlag":
        for sig in signals:
            self._previous[int(sig)] = signal.getsignal(sig)
            signal.signal(sig, self._handle)
        return self

    def restore(self) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()


class KillSwitch:
    """Self-SIGKILL at planned virtual times, exactly once per point.

    The kills-delivered counter lives in ``kills.json`` next to the
    checkpoint.  It is written *before* the kill (atomic replace, so
    the count survives the SIGKILL) and is intentionally not part of
    the digest-verified snapshot: it records kill progress, not
    simulation state, and advancing it must not move the resume point.
    """

    MARKER = "kills.json"

    def __init__(
        self,
        root: Union[str, Path],
        kill_points: Sequence[float],
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.kill_points = sorted(float(t) for t in kill_points)

    @property
    def marker_path(self) -> Path:
        return self.root / self.MARKER

    @property
    def kills_done(self) -> int:
        """Kill points already delivered (0 when the marker is absent)."""
        try:
            data = json.loads(self.marker_path.read_text())
            return int(data["kills"])
        except (OSError, ValueError, KeyError, TypeError):
            return 0

    def maybe_kill(self, t: float) -> None:
        """SIGKILL this process if virtual time reached the next point."""
        done = self.kills_done
        if done >= len(self.kill_points):
            return
        if t < self.kill_points[done]:
            return
        # Count first, kill second: if the count is durable the next
        # attempt skips this point, so progress is monotone even when a
        # kill lands before the next periodic checkpoint.
        atomic_write_text(
            self.marker_path, json.dumps({"kills": done + 1})
        )
        os.kill(os.getpid(), signal.SIGKILL)

    def reset(self) -> None:
        """Forget delivered kills once the run has completed.

        The same run started again is then killed again.
        """
        self.marker_path.unlink(missing_ok=True)
