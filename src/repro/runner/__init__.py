"""Run orchestration: declarative specs, parallel execution, caching.

The runner turns the repo's evaluation into data: every experiment is a
:class:`RunSpec` (kind + params + seed) with a stable content hash;
:func:`run_specs` fans specs across worker processes with per-spec
timeouts, crash capture, and bounded retries; and a content-addressed
:class:`ResultCache` keyed by ``(spec hash, code fingerprint)`` makes
warm reruns of unchanged figures pure cache hits.  Because tasks are
pure functions of their specs, parallel runs are byte-identical to
serial ones regardless of worker count or completion order.

Front door: ``python -m repro.runner`` (``--with-chaos --with-scale``
for the full evaluation).
"""

from repro.runner.cache import CacheStats, ResultCache
from repro.runner.executor import RunOutcome, RunReport, run_specs
from repro.runner.fingerprint import code_fingerprint
from repro.runner.manifest import Manifest, ManifestWriter, load_manifest
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
    "CacheStats",
    "Manifest",
    "ManifestWriter",
    "ResultCache",
    "RunOutcome",
    "RunReport",
    "RunSpec",
    "chaos_spec",
    "code_fingerprint",
    "envelope_spec",
    "figure_spec",
    "figure_suite",
    "load_manifest",
    "mix_seed",
    "run_specs",
    "scale_suite",
    "topo_suite",
    "workload_spec",
]
