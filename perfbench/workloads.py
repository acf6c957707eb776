"""The benchmark's three workloads, driven through the library's public API.

A workload is built for a seed and a number of passes. :meth:`setup`
generates every pass's inputs from the seed (pass ``k`` draws from its own
sub-seed, so a run averages over several inputs) and makes the warm-up
calls; :meth:`run_pass` replays one pass's inputs. A pass is
deterministic: replaying pass ``k`` again makes the same decisions, and
:func:`fastest` merges such replays into one pass of per-call minima.

* ``paper-search`` -- a closed loop of one client (Heat waits for each
  answer) placing a seeded stream of the paper's three topology families
  with expansion-capped BA*, each onto its scenario's pre-loaded state.
* ``service-storm`` -- the Poisson storm of small tenants through the
  batched, pod-sharded admission service with EG, open loop in virtual
  time, replayed as fast as the service decides.
* ``elastic-day`` -- a storm spanning more than a simulated day whose
  tenants all get a scale evaluation every 900 s (threshold policy,
  consolidation on).
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from harness import Job
from layers import Timings, Trace, lifecycle_timers, traced

from repro.core.scheduler import make_algorithm
from repro.core.validate import placement_violations
from repro.datacenter.builder import build_cloud
from repro.scaling import ScalingConfig
from repro.service import ServiceConfig, run_service
from repro.sim.arrivals import WorkloadTrace, default_app_factory
from repro.sim.scenarios import (
    mesh_scenario,
    multitier_scenario,
    qfs_testbed_scenario,
)


@dataclass
class Pass:
    """What one pass measured and decided."""

    wall_s: float = 0.0
    fingerprint: str = ""
    decision_ms: List[float] = field(default_factory=list)
    #: index of the deciding call of each decision sample
    decision_calls: List[int] = field(default_factory=list)
    lifecycle_ms: List[float] = field(default_factory=list)
    #: placements admitted, and their Table I/II quality measures
    admitted: int = 0
    reserved_bw_mbps: List[float] = field(default_factory=list)
    new_hosts: List[float] = field(default_factory=list)
    #: operations attempted / failed or refused (cancellations excluded)
    attempted: int = 0
    failed: int = 0
    #: audit and constraint findings (must stay empty)
    violations: List[str] = field(default_factory=list)
    #: storms only: replay jobs and the virtual p99 admission latency
    jobs: List[Job] = field(default_factory=list)
    virtual_p99_s: float = 0.0
    #: library counters the traced and timed counts are checked against
    counters: Dict[str, float] = field(default_factory=dict)
    #: storms, untraced: calls the lifecycle timers saw, by counter name
    timed: Dict[str, float] = field(default_factory=dict)


def fastest(replays: List[Pass]) -> Pass:
    """One pass from replays of the same inputs, taking each timing as its
    minimum over the replays.

    The replays must have equal fingerprints: they then make the same
    decisions through the same calls, so the ``i``-th decision, lifecycle
    change and drain of one replay is the ``i``-th of the others. A
    transient stall of the host rarely hits the same call in two replays,
    while a call that does more work is slower in all of them, so the
    minimum keeps the program's cost and drops the host's. Everything but
    the timings is taken from the first replay.
    """
    return replace(
        replays[0],
        wall_s=min(p.wall_s for p in replays),
        decision_ms=[min(t) for t in zip(*(p.decision_ms for p in replays))],
        lifecycle_ms=[min(t) for t in zip(*(p.lifecycle_ms for p in replays))],
        jobs=[
            replace(jobs[0], service_s=min(j.service_s for j in jobs))
            for jobs in zip(*(p.jobs for p in replays))
        ],
    )


class Workload:
    """Seeded inputs for ``passes`` passes; subclasses fill in the rest."""

    name = ""
    #: seconds one pass takes on a 2-core x86 machine
    nominal_pass_s = 1.0
    #: times a timed run replays each pass's inputs (see :func:`fastest`)
    replays = 1

    def __init__(self, seed: int, passes: int) -> None:
        self.seed = seed
        self.passes = passes

    def sub_seeds(self) -> List[int]:
        rng = random.Random(f"{self.name}:{self.seed}")
        return [rng.randrange(2 ** 31) for _ in range(self.passes)]

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(
        self,
        index: int,
        trace: Optional[Trace] = None,
        probe: Optional[Callable[[], None]] = None,
    ) -> Pass:
        """Replay pass ``index``. ``probe`` is called before each timed
        call of the pass, outside its timings."""
        raise NotImplementedError


class PaperSearch(Workload):
    """Closed-loop BA* placements of multitier, mesh and QFS topologies."""

    name = "paper-search"
    nominal_pass_s = 8.5
    #: BA* expansion cap: deterministic, and large enough that the search
    #: layers dominate
    max_expansions = 50
    #: (family, scenario factory, sizes); each size appears ``rounds``
    #: times per pass, each time with its own seeded load and topology
    families = (
        ("multitier", lambda: multitier_scenario(heterogeneous=True), (20, 30, 40, 50)),
        ("mesh", lambda: mesh_scenario(heterogeneous=True), (15, 20, 25, 30)),
        ("qfs", lambda: qfs_testbed_scenario(uniform=True), (4, 6, 8, 10)),
    )
    rounds = 2

    def setup(self) -> None:
        scenarios = [
            (family, factory(), sizes) for family, factory, sizes in self.families
        ]
        clouds = {family: scenario.build_cloud() for family, scenario, _ in scenarios}
        self.streams: List[List[Tuple]] = []
        for sub_seed in self.sub_seeds():
            rng = random.Random(sub_seed)
            stream = []
            for family, scenario, sizes in scenarios:
                cloud = clouds[family]
                for size in sizes * self.rounds:
                    item_seed = rng.randrange(2 ** 31)
                    state = scenario.build_state(cloud, item_seed)
                    topology = scenario.build_topology(size, item_seed)
                    objective = scenario.objective(topology, cloud)
                    stream.append(
                        (family, size, scenario, cloud, state, topology, objective)
                    )
            rng.shuffle(stream)
            self.streams.append(stream)
        # one warm-up search per cloud fills its lazily built caches
        for family in clouds:
            self._place(min(
                (item for item in self.streams[0] if item[0] == family),
                key=lambda item: item[1],
            ))

    def _place(self, item: Tuple) -> Any:
        _, _, scenario, cloud, state, topology, objective = item
        algo = make_algorithm(
            "ba*",
            max_expansions=self.max_expansions,
            greedy_config=scenario.greedy_config,
        )
        return algo.place(topology, cloud, state, objective)

    def run_pass(
        self,
        index: int,
        trace: Optional[Trace] = None,
        probe: Optional[Callable[[], None]] = None,
    ) -> Pass:
        stream = self.streams[index]
        out = Pass()
        clock = time.perf_counter
        results = []
        with traced(trace) if trace is not None else contextlib.nullcontext():
            for item in stream:
                if probe is not None:
                    probe()
                t0 = clock()
                results.append(self._place(item))
                elapsed = clock() - t0
                out.wall_s += elapsed
                out.decision_ms.append(elapsed * 1000.0)
                out.decision_calls.append(len(out.decision_calls))
        digest = hashlib.sha256()
        for position, (item, result) in enumerate(zip(stream, results)):
            family, size, _, cloud, state, topology, _ = item
            out.reserved_bw_mbps.append(result.reserved_bw_mbps)
            out.new_hosts.append(float(result.new_active_hosts))
            assignments = result.placement.assignments
            digest.update(f"{position}:{family}-{size}\n".encode())
            for node in sorted(assignments):
                a = assignments[node]
                digest.update(f"{node}@{a.host}:{a.disk}\n".encode())
            out.violations.extend(placement_violations(
                topology, cloud, state, result.placement
            ))
        out.admitted = out.attempted = len(results)
        out.fingerprint = digest.hexdigest()
        out.counters = {
            "placements": float(len(results)),
            "candidates_scored": float(
                sum(r.stats.candidates_scored for r in results)),
            "paths_expanded": float(
                sum(r.stats.paths_expanded for r in results)),
        }
        return out


class _Storm(Workload):
    """Storms through :func:`repro.service.run_service`, timed per call."""

    arrivals = 0
    warmup_arrivals = 24
    replays = 2

    def storm(self, arrivals: int, seed: int) -> WorkloadTrace:
        raise NotImplementedError

    def service_config(self, seed: int) -> ServiceConfig:
        raise NotImplementedError

    def setup(self) -> None:
        self.cloud = build_cloud(
            num_datacenters=1, pods_per_dc=4, racks_per_pod=2, hosts_per_rack=8
        )
        self.inputs = [
            (self.storm(self.arrivals, s), self.service_config(s))
            for s in self.sub_seeds()
        ]
        run_service(
            self.storm(self.warmup_arrivals, self.seed), self.cloud, self.inputs[0][1]
        )

    def run_pass(
        self,
        index: int,
        trace: Optional[Trace] = None,
        probe: Optional[Callable[[], None]] = None,
    ) -> Pass:
        storm, config = self.inputs[index]
        out = Pass()
        timings = Timings()
        clock = time.perf_counter
        if probe is not None:
            probe()
        with traced(trace) if trace is not None else lifecycle_timers(timings):
            started = clock()
            report = run_service(storm, self.cloud, config)
            out.wall_s = clock() - started
        out.fingerprint = report.fingerprint
        out.violations = list(report.audit_violations)
        out.admitted = report.admitted
        out.virtual_p99_s = report.latency_p99_s
        for outcome in report.outcomes:
            if outcome.status == "admitted" and outcome.result is not None:
                out.reserved_bw_mbps.append(outcome.result.reserved_bw_mbps)
                out.new_hosts.append(float(outcome.result.new_active_hosts))
        previous_end = started
        for call, (start, end, now, submits) in enumerate(timings.batches):
            out.decision_ms.extend([(end - start) * 1000.0] * len(submits))
            out.decision_calls.extend([call] * len(submits))
            # a drain's service time: all work since the previous drain
            out.jobs.append(Job(now, end - previous_end, submits))
            previous_end = end
        out.lifecycle_ms = [s * 1000.0 for _, s, _ in timings.lifecycle]
        scale_in_failures = sum(
            1 for kind, _, ok in timings.lifecycle if kind == "scale_in" and not ok
        )
        updates = report.updates_applied + report.updates_failed
        scale_outs = report.scale_outs + report.scale_out_failures
        out.attempted = (
            report.requests - report.cancelled + updates + scale_outs
            + report.scale_ins + scale_in_failures
        )
        out.failed = (
            report.rejected + report.expired + report.updates_failed
            + report.scale_out_failures + scale_in_failures
        )
        out.counters = {
            "drains": float(report.drains),
            "batches": float(sum(report.batches.values())),
            "scale_evaluations": float(report.scale_evaluations),
            "coordinator_updates": float(updates + scale_outs),
            "scale_ins": float(report.scale_ins),
        }
        if trace is None:
            out.timed = {
                "drains": float(len(timings.batches)),
                "coordinator_updates": float(sum(
                    1 for kind, _, _ in timings.lifecycle if kind == "update")),
                "scale_ins": float(sum(
                    1 for kind, _, ok in timings.lifecycle if kind == "scale_in" and ok)),
            }
        return out


class ServiceStorm(_Storm):
    """The admission-service storm: flash crowds, priorities, deadlines."""

    name = "service-storm"
    nominal_pass_s = 2.0
    arrivals = 500

    def storm(self, arrivals: int, seed: int) -> WorkloadTrace:
        return WorkloadTrace.poisson_storm(
            arrivals,
            default_app_factory,
            mean_interarrival_s=12.0,
            mean_lifetime_s=400.0,
            seed=seed,
            burst_every_s=240.0,
            burst_len_s=48.0,
            burst_factor=4.0,
            priority_levels=3,
            update_fraction=0.2,
        )

    def service_config(self, seed: int) -> ServiceConfig:
        return ServiceConfig(
            algorithm="eg", horizon_s=30.0, max_batch=16, deadline_s=180.0
        )


class ElasticDay(_Storm):
    """Long-lived tenants with a scale evaluation every 900 s."""

    name = "elastic-day"
    nominal_pass_s = 2.4
    #: 240 arrivals 360 s apart span a simulated day; 6 h lifetimes keep
    #: about 60 tenants live at once, close to but below the load (80 at
    #: 8 h) where arrivals get rejected and single updates take seconds
    arrivals = 240
    scale_every_s = 900.0

    def storm(self, arrivals: int, seed: int) -> WorkloadTrace:
        return WorkloadTrace.poisson_storm(
            arrivals,
            default_app_factory,
            mean_interarrival_s=360.0,
            mean_lifetime_s=21600.0,
            seed=seed,
            priority_levels=3,
            update_fraction=0.1,
            scale_every_s=self.scale_every_s,
        )

    def service_config(self, seed: int) -> ServiceConfig:
        return ServiceConfig(
            algorithm="eg",
            horizon_s=60.0,
            max_batch=16,
            scaling=ScalingConfig(
                policy="threshold",
                tier_prefix="vm",
                scale_out_at=0.70,
                scale_in_at=0.35,
                step_fraction=0.34,
                cooldown_s=self.scale_every_s,
                seed=seed,
                consolidate=True,
            ),
        )


WORKLOADS = {w.name: w for w in (PaperSearch, ServiceStorm, ElasticDay)}
