"""The eight workloads: set-up, timed region, summary, verification.

Every workload runs one pinned instance (``INSTANCE_SEED``) through the
program's public entry points; ``--seed`` moves only the offered load
(:func:`benchmarks.spine.spec.load_factor`).  ``prepare`` is the set-up
(timed as ``setup_s``), ``run`` is the timed region and nothing else,
``summarize`` reads the outcome afterwards.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.apps.smartpointer import BOND2_NOMINAL_MBPS, smartpointer_streams
from repro.checkpoint.policy import CheckpointConfig
from repro.checkpoint.snapshot import CheckpointStore
from repro.checkpoint.workload import run_scale_scenario_checkpointed
from repro.cluster.local import run_partitioned
from repro.cluster.master import ClusterMaster
from repro.core.pgos import PGOSScheduler
from repro.harness.figures import CANONICAL_SEEDS, FIGURES
from repro.harness.figures import gridftp_runs, smartpointer_runs
from repro.middleware.service import IQPathsService
from repro.network.emulab import make_figure8_testbed
from repro.obs.context import Observability
from repro.runner.cache import payload_digest
from repro.runner.spec import mix_seed
from repro.transport.session import run_packet_session
from repro.workload.catalog import default_catalog, plan_concurrent_batch
from repro.workload.scenarios import (
    make_scale_run,
    make_scenario,
    run_scale_scenario,
)

from benchmarks.spine import probes
from benchmarks.spine.checks import (
    check_conservation,
    check_report,
    check_same,
)
from benchmarks.spine.spec import INSTANCE_SEED, load_factor


@dataclass
class Rep:
    """What one timed region produced, read after the clock stopped."""

    #: Units of ``work_per_s`` completed (sessions, steps, packets...).
    work: int
    #: Operations attempted, for the failed-share rule.
    ops: int
    #: Delivery intervals simulated (0 when the workload has none).
    steps: int
    kept_frac: float
    digest: str
    #: Simulated statistics, exact for a fixed seed.
    exact: dict[str, float]
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    #: Mappings the scheduler installed during the timed region.
    remaps: int = 0
    #: Per-layer numbers that fall out of the outcome itself.
    layers: dict[str, float] = field(default_factory=dict)


@dataclass
class Traced:
    """What a traced run knows when a workload's probes run."""

    #: Wall of the untraced and of the shimmed rep.
    plain_wall_s: float
    wall_s: float
    #: Summary of the shimmed rep.
    rep: Rep
    #: Per-layer metrics derived from its spans.
    spans: dict[str, float]


class Workload:
    """One named workload; subclasses fill in the four phases."""

    name = ""
    #: Traced runs add one rep with ``Observability()`` switched on.
    obs_rep = False
    #: ``prepare`` builds the set-up afresh on every call (and so every
    #: call is a sample of ``setup_s``).
    rebuilds_setup = True

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.load = load_factor(seed)
        self.tmp = tmp

    def prepare(self, obs: Optional[Observability] = None) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> Any:
        raise NotImplementedError

    def summarize(self, state: Any, outcome: Any) -> Rep:
        raise NotImplementedError

    def targets(self, state: Any) -> list[tuple[Any, str, str]]:
        """(object, attribute, span name) shims of the timed region."""
        return []

    def verify(self, reps: list[Rep], trace: bool) -> list[str]:
        """Once per run, untimed: checks that need a second computation."""
        return []

    def probes(self, traced: Traced) -> dict[str, float]:
        """Traced runs only: direct probes this workload prints, and
        per-layer metrics it derives from the traced rep."""
        return {}

    def close(self) -> None:
        pass


def _service_targets(service) -> list[tuple[Any, str, str]]:
    scheduler = service.scheduler
    shims = [
        (service, "open_stream", "middleware.open"),
        (service, "open_streams", "middleware.open"),
        (service, "close_stream", "middleware.close"),
        (service, "advance", "middleware.advance"),
        (scheduler, "observe", "core.pgos.observe"),
        (scheduler, "remap", "core.pgos.remap"),
        (scheduler, "add_stream", "core.pgos.other"),
        (scheduler, "remove_stream", "core.pgos.other"),
        (scheduler, "allocate", "core.pgos.other"),
        (scheduler, "set_quarantine", "core.pgos.other"),
    ]
    if service.health is not None:
        shims.append((service.health, "update", "robustness.health"))
    return shims


def _report_rep(payload: dict, digest: str, steps: int, remaps: int) -> Rep:
    duration = payload["duration"]
    return Rep(
        work=payload["offered"],
        ops=payload["offered"],
        steps=steps,
        kept_frac=1.0 - payload["violation_rate"],
        digest=digest,
        exact={
            "sim.violation_rate": payload["violation_rate"],
            "sim.goodput_mbps": payload["delivered_megabits"] / duration,
        },
        problems=check_report(payload),
        remaps=remaps,
    )


class SessionWorkload(Workload):
    """A named scale scenario played by a ``ChurnDriver``."""

    scenario = "baseline"
    rate_scale = 1.0
    topology: Optional[str] = None

    def prepare(self, obs=None):
        scenario = make_scenario(
            self.scenario,
            rate_scale=self.rate_scale * self.load,
            topology=self.topology,
        )
        return make_scale_run(scenario, seed=INSTANCE_SEED, obs=obs), scenario

    def run(self, state):
        driver, scenario = state
        return driver.run(scenario.duration)

    def summarize(self, state, report):
        driver, _ = state
        return _report_rep(
            report.to_dict(),
            report.checksum(),
            driver.completed_steps,
            driver.service.scheduler.remap_count,
        )

    def targets(self, state):
        driver, _ = state
        return [
            (driver, "advance_to", "workload.driver"),
            (driver, "finalize", "workload.driver"),
        ] + _service_targets(driver.service)


class Churn(SessionWorkload):
    name = "churn"
    obs_rep = True

    def probes(self, traced):
        return probes.mapping_probes()


class Incast(SessionWorkload):
    name = "incast"
    topology = "fat_tree_k4:dc-incast"

    def probes(self, traced):
        return probes.reject_probes()


class Chaos(SessionWorkload):
    name = "chaos"
    scenario = "flash-crowd-chaos"
    rate_scale = 1.5

    def probes(self, traced):
        return probes.degradation_probes()


class Steady(Workload):
    """One batch open, then 9000 steps of pure delivery."""

    name = "steady"
    STREAMS = 2000
    ADVANCE_S = 900.0
    WARMUP = 100

    def prepare(self, obs=None):
        specs = plan_concurrent_batch(
            default_catalog(0.07 * self.load), self.STREAMS, INSTANCE_SEED
        )
        realization = make_figure8_testbed().realize(
            seed=mix_seed(INSTANCE_SEED, "spine-steady"),
            duration=self.ADVANCE_S + 15.0,
            dt=0.1,
        )
        service = IQPathsService(
            realization, warmup_intervals=self.WARMUP, strict_admission=True
        )
        # Strict: a refusal raises AdmissionError and fails the run;
        # there is no lenient fallback.
        service.open_streams(specs)
        return service

    def run(self, service):
        before = service.scheduler.remap_count
        service.advance(self.ADVANCE_S)
        return service.scheduler.remap_count - before

    def summarize(self, service, remaps):
        steps = int(round(self.ADVANCE_S / service.dt))
        reports = service.reports()
        total = np.zeros(steps)
        below = 0
        goodput = 0.0
        summary = {}
        for name, report in reports.items():
            total += report.mbps
            goodput += report.mean_mbps
            attainment = report.attainment
            wanted = service.handles[name].spec.probability
            if (
                wanted is not None
                and attainment is not None
                and attainment < wanted
            ):
                below += 1
            summary[name] = [round(report.mean_mbps, 6), attainment]
        available = [
            service.realization.available[p].available_mbps[
                self.WARMUP:self.WARMUP + steps
            ]
            for p in service.path_names
        ]
        problems = check_conservation(total, available)
        if len(reports) != self.STREAMS:
            problems.append(
                f"{len(reports)} streams reported, {self.STREAMS} opened"
            )
        return Rep(
            work=steps,
            ops=self.STREAMS,
            steps=steps,
            kept_frac=1.0 - below / self.STREAMS,
            digest=payload_digest(summary),
            exact={
                "sim.violation_rate": below / self.STREAMS,
                "sim.goodput_mbps": goodput,
            },
            problems=problems,
            remaps=remaps,
        )

    def targets(self, service):
        return _service_targets(service)

    def probes(self, traced):
        out = probes.cdf_probes()
        out["sim.deliver_us_per_stream_step"] = (
            1e6 * traced.spans["middleware.advance_self_s"]
            / (self.STREAMS * traced.rep.steps)
        )
        return out


class _Killed(Exception):
    """Raised by the kill hook; stands in for a crash."""


class ChurnCkpt(Workload):
    """Churn under a snapshot policy, killed once and resumed."""

    name = "churn_ckpt"
    DURATION_S = 50.0
    KILL_AFTER_STEP = 249
    CONFIG = CheckpointConfig(every_s=1.0)
    #: Fixed: hashing the source tree is not what this workload times.
    FINGERPRINT = "spine"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self._slots = 0

    def _scenario(self):
        return make_scenario(
            "baseline", rate_scale=self.load, duration=self.DURATION_S
        )

    def prepare(self, obs=None):
        self._slots += 1
        return CheckpointStore(self.tmp / f"slot{self._slots}")

    def _call(self, store, on_step):
        return run_scale_scenario_checkpointed(
            self._scenario(),
            store,
            seed=INSTANCE_SEED,
            config=self.CONFIG,
            fingerprint=self.FINGERPRINT,
            strict_resume=True,
            on_step=on_step,
        )

    def run(self, store):
        problems = []

        def kill(k, t):
            if k == self.KILL_AFTER_STEP:
                raise _Killed

        try:
            self._call(store, kill)
            problems.append("the kill hook never fired")
        except _Killed:
            pass
        if not store.exists():
            problems.append("no snapshot in the slot after the kill")
        resumed_steps = []
        report = self._call(
            store, lambda k, t: resumed_steps.append(k)
        )
        if resumed_steps[:1] != [self.KILL_AFTER_STEP + 1]:
            problems.append(
                f"resume started at step {resumed_steps[:1]}, not "
                f"{self.KILL_AFTER_STEP + 1}"
            )
        if store.exists():
            problems.append("slot not cleared after the run completed")
        return report, problems

    def summarize(self, store, outcome):
        report, problems = outcome
        steps = int(round(self.DURATION_S / report.dt))
        rep = _report_rep(report.to_dict(), report.checksum(), steps, 0)
        rep.problems += problems
        return rep

    def targets(self, store):
        return [
            (store, "save", "checkpoint.save"),
            (store, "load", "checkpoint.load"),
        ]

    def verify(self, reps, trace):
        straight = run_scale_scenario(self._scenario(), seed=INSTANCE_SEED)
        return check_same(
            "resumed vs uninterrupted run",
            [reps[-1].digest, straight.checksum()],
        )

    def probes(self, traced):
        """state_dict / load_state_dict at the kill point, on a driver
        the benchmark builds (the checkpointed run keeps its own)."""
        scenario = self._scenario()
        driver = make_scale_run(scenario, seed=INSTANCE_SEED)
        driver.begin(scenario.duration)
        driver.advance_to(self.KILL_AFTER_STEP + 1)
        state = {}

        def snapshot():
            state["service"] = driver.service.state_dict()
            state["driver"] = driver.state_dict()

        def restore():
            fresh = make_scale_run(scenario, seed=INSTANCE_SEED)
            start = time.perf_counter()
            fresh.service.load_state_dict(state["service"])
            fresh.load_state_dict(state["driver"])
            return time.perf_counter() - start

        state_dict_s = probes.median_s(snapshot)
        restore_s = statistics.median(restore() for _ in range(5))
        slot = CheckpointStore(self.tmp / "probe").save(
            state, fingerprint=self.FINGERPRINT
        )
        return {
            "checkpoint.state_dict_ms": 1e3 * state_dict_s,
            "checkpoint.restore_ms": 1e3 * restore_s,
            "checkpoint.snapshot_bytes": slot.stat().st_size,
        }


class Cluster2(Workload):
    """Consecutive jobs on one 2-shard fleet; the fleet is set-up."""

    name = "cluster2"
    rebuilds_setup = False
    WARM_S = 10.0
    EPOCH_S = 5.0

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self._master: Optional[ClusterMaster] = None
        self._warm = None
        self._payload = None
        self._spawn_s = math.nan
        self._local_wall_s = math.nan

    def _fleet(self, shards: int) -> ClusterMaster:
        return ClusterMaster(
            scenario="baseline",
            seed=INSTANCE_SEED,
            shards=shards,
            epoch_s=self.EPOCH_S,
            checkpoint_root=self.tmp / f"cluster{shards}",
        )

    def prepare(self, obs=None):
        if self._master is None:
            start = time.perf_counter()
            self._master = self._fleet(2)
            self._warm = self._master.run(
                rate_scale=self.load, duration=self.WARM_S
            )
            self._spawn_s = time.perf_counter() - start
        return self._master

    def run(self, master):
        return master.run(rate_scale=self.load)

    def summarize(self, master, report):
        merged = report.merged
        steps = int(round(merged["duration"] / merged["dt"]))
        rep = _report_rep(merged, report.checksum(), steps, 0)
        rep.layers = {"cluster.epochs": report.telemetry["epochs"]}
        self._payload = merged
        return rep

    def targets(self, master):
        return [(master, "run", "cluster.job")]

    def _local(self, duration):
        start = time.perf_counter()
        local = run_partitioned(
            "baseline", seed=INSTANCE_SEED, rate_scale=self.load,
            duration=duration,
        )
        return local.checksum(), time.perf_counter() - start

    def verify(self, reps, trace):
        """The merged bytes must be those of the in-process baseline:
        on the short warm-up job every run, on the full job when traced
        (that run needs the baseline's wall time anyway)."""
        if trace:
            local, self._local_wall_s = self._local(None)
            return check_same(
                "cluster vs run_partitioned", [reps[-1].digest, local]
            )
        local, _ = self._local(self.WARM_S)
        return check_same(
            "warm-up job vs run_partitioned",
            [self._warm.checksum(), local],
        )

    def probes(self, traced):
        out = probes.frame_probes({"merged": self._payload})
        with self._fleet(1) as single:
            single.run(rate_scale=self.load, duration=self.WARM_S)
            start = time.perf_counter()
            single.run(rate_scale=self.load)
            wall_1 = time.perf_counter() - start
        local = self._local_wall_s
        out["cluster.overhead_1shard_frac"] = (wall_1 - local) / local
        out["cluster.speedup_vs_local"] = local / traced.plain_wall_s
        out["cluster.spawn_s"] = self._spawn_s
        return out

    def close(self):
        if self._master is not None:
            self._master.close()
            self._master = None


class Figures(Workload):
    """Every figure of the paper's evaluation, caches cold."""

    name = "figures"

    def prepare(self, obs=None):
        smartpointer_runs.smartpointer_results.cache_clear()
        gridftp_runs.gridftp_results.cache_clear()
        return None

    def run(self, state):
        results, walls, raised = {}, {}, []
        for name, figure in FIGURES.items():
            start = time.perf_counter()
            try:
                results[name] = figure(
                    seed=CANONICAL_SEEDS[name] + self.seed, fast=False
                )
            except Exception as exc:  # noqa: BLE001 - one figure failing
                # must not hide the others; it is counted and reported.
                raised.append(f"{name} raised {type(exc).__name__}: {exc}")
            walls[name] = time.perf_counter() - start
        return results, walls, raised

    def summarize(self, state, outcome):
        results, walls, raised = outcome
        errors = [
            abs(measured - paper) / abs(paper)
            for result in results.values()
            for _, paper, measured in result.comparison_rows()
            if paper
        ]
        problems = list(raised)
        for name, result in results.items():
            bad = [
                key for key, value in result.measured.items()
                if not math.isfinite(value)
            ]
            if bad:
                problems.append(f"{name}: non-finite measured {bad}")
        rel_err = statistics.median(errors) if errors else math.nan
        return Rep(
            work=len(FIGURES),
            ops=len(FIGURES),
            steps=0,
            kept_frac=1.0 - rel_err,
            digest=payload_digest(
                {name: result.measured for name, result in results.items()}
            ),
            exact={"sim.paper_rel_err": rel_err},
            problems=problems,
            failed=len(raised),
            layers={f"harness.{name}_s": wall for name, wall in walls.items()},
        )


class Packets(Workload):
    """The packet-accurate SmartPointer session."""

    name = "packets"
    obs_rep = True
    WINDOWS = 300
    WARMUP_WINDOWS = 15

    def prepare(self, obs=None):
        realization = make_figure8_testbed().realize(
            seed=mix_seed(INSTANCE_SEED, "spine-packets"),
            duration=float(self.WINDOWS + self.WARMUP_WINDOWS),
            dt=0.1,
        )
        streams = smartpointer_streams(
            bond2_nominal=BOND2_NOMINAL_MBPS * self.load
        )
        return realization, streams, PGOSScheduler(), obs

    def run(self, state):
        realization, streams, scheduler, obs = state
        return run_packet_session(
            realization,
            streams,
            scheduler=scheduler,
            warmup_windows=self.WARMUP_WINDOWS,
            obs=obs,
        )

    def summarize(self, state, result):
        sent = sum(
            sum(series)
            for per_path in result.sent.values()
            for series in per_path.values()
        )
        missed = sum(result.deadline_misses.values())
        problems = []
        if result.n_windows != self.WINDOWS:
            problems.append(
                f"{result.n_windows} windows dispatched, not {self.WINDOWS}"
            )
        if sent <= 0:
            problems.append("no packet was sent")
        miss_frac = missed / sent if sent else math.nan
        return Rep(
            work=sent,
            ops=sent,
            steps=result.n_windows,
            kept_frac=1.0 - miss_frac,
            digest=payload_digest(
                {
                    "sent": result.sent,
                    "deadline_misses": result.deadline_misses,
                    "blocked_events": result.blocked_events,
                    "remap_count": result.remap_count,
                }
            ),
            exact={"sim.deadline_miss_frac": miss_frac},
            problems=problems,
            remaps=result.remap_count,
            layers={
                "transport.blocked_events": result.blocked_events,
                "transport.remaps": result.remap_count,
            },
        )

    def targets(self, state):
        scheduler = state[2]
        return [
            (scheduler, "observe", "core.pgos.observe"),
            (scheduler, "remap", "core.pgos.remap"),
        ]

    def probes(self, traced):
        out = probes.packet_probes()
        out["transport.us_per_packet"] = (
            1e6 * traced.wall_s / traced.rep.work
        )
        return out


REGISTRY = {
    cls.name: cls
    for cls in (
        Churn, Steady, Incast, Chaos, ChurnCkpt, Cluster2, Figures, Packets,
    )
}
