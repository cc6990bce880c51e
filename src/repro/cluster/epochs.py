"""The virtual-time epoch schedule the barrier synchronizes on.

Master and workers each compute this schedule independently from the
same ``(duration, epoch_s)`` and the workload's fixed step interval
(:data:`~repro.workload.scenarios.STEP_DT`); it must therefore be a
pure function of those two numbers.  Epoch ``e`` covers delivery steps
``(boundary(e-1), boundary(e)]``, and the last boundary always equals
the run's total step count (the final epoch may be short).
"""

from __future__ import annotations

from bisect import bisect_right

from repro.errors import ConfigurationError
from repro.workload.scenarios import STEP_DT


def total_steps(duration: float) -> int:
    """Delivery steps in a run of ``duration`` virtual seconds."""
    if duration <= 0:
        raise ConfigurationError(
            f"duration must be positive, got {duration}"
        )
    return int(round(duration / STEP_DT))


def epoch_boundaries(duration: float, epoch_s: float) -> list[int]:
    """End step of each epoch: strictly increasing, ends at total steps."""
    if epoch_s < STEP_DT:
        raise ConfigurationError(
            f"epoch_s must be >= dt ({STEP_DT}), got {epoch_s}"
        )
    steps = total_steps(duration)
    boundaries: list[int] = []
    epoch = 0
    while True:
        boundary = min(steps, int(round((epoch + 1) * epoch_s / STEP_DT)))
        boundaries.append(boundary)
        if boundary >= steps:
            return boundaries
        epoch += 1


def epochs_completed(boundaries: list[int], step: int) -> int:
    """How many epochs a run checkpointed at ``step`` has fully finished."""
    return bisect_right(boundaries, step)
