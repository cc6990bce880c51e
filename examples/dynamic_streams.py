#!/usr/bin/env python
"""Dynamic stream membership through the middleware facade.

A remote-visualization session evolves over two minutes: the steering
channel runs throughout, the visualization stream joins once the viewer
connects, a bulk checkpoint transfer joins and later finishes.  Every
membership change voids PGOS's scheduling vectors and triggers a remap,
while the steering channel's 99 % guarantee holds across all of it.

Run:  python examples/dynamic_streams.py
"""

from repro.core.spec import StreamSpec
from repro.middleware.service import IQPathsService
from repro.harness.report import series_block
from repro.network.emulab import make_figure8_testbed


def main() -> None:
    testbed = make_figure8_testbed()
    realization = testbed.realize(seed=303, duration=150.0, dt=0.1)
    service = IQPathsService(realization, warmup_intervals=300)

    steering = StreamSpec(
        name="steering", required_mbps=1.5, probability=0.99, max_rtt_ms=60.0
    )
    viz = StreamSpec(name="viz", required_mbps=22.0, probability=0.95)
    checkpoint = StreamSpec(
        name="checkpoint", elastic=True, nominal_mbps=50.0
    )

    # A close retires the stream, so its report is taken first.
    closed = {}

    def finish_checkpoint() -> None:
        closed["checkpoint"] = service.report("checkpoint")
        service.close_stream("checkpoint")

    service.open_stream(steering)
    service.at(20.0, lambda: service.open_stream(viz))
    service.at(45.0, lambda: service.open_stream(checkpoint))
    service.at(90.0, finish_checkpoint)
    service.advance(120.0)

    print(f"remaps over the session: {service.scheduler.remap_count}\n")
    for name, report in {**service.reports(), **closed}.items():
        attainment = (
            f"  guarantee held {report.attainment * 100:.1f}% of lifetime"
            if report.attainment is not None
            else ""
        )
        print(series_block(name, report.mbps))
        print(f"  mean {report.mean_mbps:.2f} Mbps{attainment}\n")

    steering_report = service.report("steering")
    assert steering_report.attainment >= 0.99, steering_report
    print("steering guarantee held through every join/leave")


if __name__ == "__main__":
    main()
