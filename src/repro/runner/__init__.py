"""Run orchestration: declarative specs and parallel execution.

The runner turns the repo's evaluation into data: every experiment is a
:class:`RunSpec` (kind + params + seed) with a stable content hash, and
:func:`run_specs` fans specs across worker processes with per-spec
timeouts, crash capture, and bounded retries.  Because tasks are pure
functions of their specs, parallel runs are byte-identical to serial
ones regardless of worker count or completion order, and one cold run
regenerates the whole evaluation in seconds.

Front door: ``python -m repro.runner`` (``--with-chaos --with-scale``
for the full evaluation).
"""

from repro.runner.executor import RunOutcome, RunReport, run_specs
from repro.runner.fingerprint import code_fingerprint
from repro.runner.spec import RunSpec, mix_seed
from repro.runner.suite import (
    chaos_spec,
    envelope_spec,
    figure_spec,
    figure_suite,
    scale_suite,
    topo_suite,
    workload_spec,
)

__all__ = [
    "RunOutcome",
    "RunReport",
    "RunSpec",
    "chaos_spec",
    "code_fingerprint",
    "envelope_spec",
    "figure_spec",
    "figure_suite",
    "mix_seed",
    "run_specs",
    "scale_suite",
    "topo_suite",
    "workload_spec",
]
