#!/usr/bin/env python
"""Admission control and the upcall protocol.

Shows the control plane the paper describes around PGOS:

1. a feasible stream set is admitted and mapped;
2. an overloaded set is rejected with a *renegotiation hint* (the
   probability the overlay can actually offer) — the paper's upcall;
3. the application retries with the hinted probability and is admitted.

Run:  python examples/admission_control.py
"""

from repro.core.admission import AdmissionController
from repro.core.spec import StreamSpec
from repro.monitoring.cdf import EmpiricalCDF
from repro.network.emulab import make_figure8_testbed


def main() -> None:
    testbed = make_figure8_testbed()
    realization = testbed.realize(seed=2006, duration=60.0, dt=0.1)
    cdfs = {
        p: EmpiricalCDF(realization.available[p].available_mbps)
        for p in realization.path_names()
    }
    controller = AdmissionController(tw=1.0)

    # 1. A feasible set.
    modest = [
        StreamSpec(name="steering", required_mbps=1.0, probability=0.99),
        StreamSpec(name="viz", required_mbps=20.0, probability=0.95),
    ]
    decision = controller.try_admit(modest, cdfs)
    print(f"modest workload admitted: {decision.admitted}")
    for name in decision.admitted_streams:
        print(
            f"  {name}: paths {decision.mapping.paths_of(name)}, "
            f"P >= {decision.mapping.achieved_probability[name]:.3f}"
        )

    # 2. An overloaded set: the upcall names the stream and hints a
    #    feasible probability.
    greedy = modest + [
        StreamSpec(name="firehose", required_mbps=45.0, probability=0.99)
    ]
    decision = controller.try_admit(greedy, cdfs)
    print(f"\ngreedy workload admitted: {decision.admitted}")
    print(f"  rejected stream: {decision.rejected_stream}")
    print(f"  overlay can offer P ~= {decision.suggested_probability:.3f}")

    # 3. The application renegotiates downward, as the paper describes
    #    ("the application can reduce its bandwidth requirement, e.g.
    #    from 95% to 90%").
    retry_p = max(round(decision.suggested_probability * 0.9, 2), 0.05)
    renegotiated = modest + [
        StreamSpec(name="firehose", required_mbps=45.0, probability=retry_p)
    ]
    decision = controller.try_admit(renegotiated, cdfs)
    print(f"\nretry at P={retry_p}: admitted={decision.admitted}")


if __name__ == "__main__":
    main()
