"""The paper's primary contribution.

* :mod:`repro.core.spec` — stream utility specifications (required
  bandwidth with probability P, window constraints).
* :mod:`repro.core.guarantees` — the statistical guarantees of Section 5.1
  (Lemma 1: probabilistic; Lemma 2: violation bound).
* :mod:`repro.core.admission` — admission control with the paper's upcall
  semantics.
* :mod:`repro.core.mapping` — utility-based resource mapping of streams to
  overlay paths (Section 5.2.2).
* :mod:`repro.core.vectors` — virtual deadlines and the V_P / V_S
  scheduling vectors (the worked example of Section 5.2.2 is reproduced
  exactly in the tests).
* :mod:`repro.core.pgos` — the PGOS scheduler: Figure 7's loop with the
  Table 1 precedence rules.
* :mod:`repro.core.scheduler` — the scheduler interface shared with the
  baselines and the per-path bandwidth-sharing model.

Which streams keep a guarantee under overload is the admission upcall's
question (the application renegotiates), not a selection made here.
"""

from repro.core.spec import StreamSpec, WindowConstraint
from repro.core.guarantees import (
    feasible_with_probability,
    probabilistic_guarantee,
    violation_bound,
)
from repro.core.admission import AdmissionController, AdmissionDecision
from repro.core.mapping import (
    PathQoSEstimate,
    PlacementFold,
    ResourceMapping,
    best_effort_mapping,
    compute_mapping,
    even_split_mapping,
)
from repro.core.vectors import Schedule, build_schedule, path_lookup_vector, stream_schedule_vector
from repro.core.pgos import PGOSScheduler
from repro.core.scheduler import PathShareRequest, SchedulerBase, water_fill

__all__ = [
    "StreamSpec",
    "WindowConstraint",
    "probabilistic_guarantee",
    "violation_bound",
    "feasible_with_probability",
    "AdmissionController",
    "AdmissionDecision",
    "ResourceMapping",
    "PathQoSEstimate",
    "PlacementFold",
    "compute_mapping",
    "best_effort_mapping",
    "even_split_mapping",
    "Schedule",
    "build_schedule",
    "path_lookup_vector",
    "stream_schedule_vector",
    "PGOSScheduler",
    "SchedulerBase",
    "PathShareRequest",
    "water_fill",
]
