"""Reproducible benchmark harness for the search hot path.

``repro bench`` (and the CI wrapper ``benchmarks/perf/run.py``) times the
reference algorithms on the reference scenarios and emits machine-readable
``BENCH_<scenario>.json`` files. Two kinds of measurements are recorded:

* **Deterministic work counters** -- candidates scored, paths expanded, EG
  bound runs (from :class:`~repro.core.base.SearchStats`), plus the
  telemetry counters of the :mod:`repro.obs` registry harvested from one
  instrumented run (estimates, prunes, expansions). These are exactly
  reproducible for EG and BA*, so a regression gate can compare them
  bit-for-bit across commits.
* **Wall-clock timings** -- best-of-N seconds per algorithm, plus the same
  number normalized by an in-process *calibration unit* (a fixed
  pure-Python loop timed in the same run). The normalized cost is stable
  across machines of different speeds, which is what the CI smoke gate
  compares against the committed baseline (within a tolerance), following
  the deterministic-bound pattern of ``tests/obs/test_overhead.py``.

The placement itself is also fingerprinted (a SHA-256 over the sorted
assignment list), so a baseline comparison doubles as a behavioral
regression check: a placement change shows up as a hash mismatch, not just
a timing delta.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.base import PlacementResult
from repro.core.scheduler import make_algorithm
from repro.sim.metrics import MeasurementRow
from repro.sim.scenarios import (
    Scenario,
    mesh_scenario,
    multitier_scenario,
    qfs_testbed_scenario,
)

#: registry counters harvested from the instrumented run
_REGISTRY_COUNTERS = (
    "ostro_estimates_total",
    "ostro_candidates_scored_total",
    "ostro_nodes_expanded_total",
    "ostro_eg_bound_runs_total",
)


@dataclass(frozen=True)
class BenchCase:
    """One benchmark scenario: a workload plus the algorithms timed on it.

    Attributes:
        name: scenario key, used in the ``BENCH_<name>.json`` filename.
        scenario_factory: zero-argument callable building the scenario.
        size: workload size passed to the scenario's topology builder.
        algorithms: (label, algorithm name, extra options, gated) tuples.
            ``gated`` algorithms are deterministic (EG, expansion-capped
            BA*) and participate in baseline regression checks; ungated
            ones (deadline-driven DBA*) are reported but not compared.
    """

    name: str
    scenario_factory: Callable[[], Scenario]
    size: int
    algorithms: Tuple[Tuple[str, str, Tuple[Tuple[str, object], ...], bool], ...]


#: The reference suite: the paper's three workload families at sizes small
#: enough for CI but large enough that the search hot path dominates.
REFERENCE_CASES: Tuple[BenchCase, ...] = (
    BenchCase(
        name="multitier",
        scenario_factory=lambda: multitier_scenario(heterogeneous=True),
        size=40,
        algorithms=(
            ("eg", "eg", (), True),
            ("ba*", "ba*", (("max_expansions", 100),), True),
            ("dba*", "dba*", (("deadline_s", 1.0), ("seed", 0)), False),
        ),
    ),
    BenchCase(
        name="mesh",
        scenario_factory=lambda: mesh_scenario(heterogeneous=True),
        size=25,
        algorithms=(
            ("eg", "eg", (), True),
            ("ba*", "ba*", (("max_expansions", 100),), True),
        ),
    ),
    BenchCase(
        name="qfs",
        scenario_factory=lambda: qfs_testbed_scenario(),
        size=12,
        algorithms=(
            ("eg", "eg", (), True),
            ("ba*", "ba*", (("max_expansions", 1000),), True),
        ),
    ),
)


def placement_fingerprint(result: PlacementResult) -> str:
    """Stable hash of the assignment set (behavioral regression check)."""
    blob = json.dumps(
        sorted(
            (a.node, a.host, a.disk)
            for a in result.placement.assignments.values()
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def calibration_unit_s(repeats: int = 3) -> float:
    """Seconds for a fixed pure-Python workload on this interpreter.

    The loop exercises the same primitives the search hot path spends its
    time on (dict get/set, float adds, integer masking), so dividing a
    benchmark's wall time by this unit yields a machine-independent cost
    that a CI gate can compare across hosts of different speeds.
    """
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        ledger: Dict[int, float] = {}
        acc = 0.0
        for i in range(200_000):
            key = i & 1023
            ledger[key] = ledger.get(key, 0.0) + 1.5
            acc += ledger[key]
        best = min(best, time.perf_counter() - started)
    assert acc > 0.0
    return best


def _run_once(case: BenchCase, algorithm: str, options: Dict) -> Tuple[
    PlacementResult, float
]:
    scenario = case.scenario_factory()
    cloud = scenario.build_cloud()
    state = scenario.build_state(cloud, 0)
    topology = scenario.build_topology(case.size, 0)
    objective = scenario.objective(topology, cloud)
    opts = dict(options)
    opts.setdefault("greedy_config", scenario.greedy_config)
    algo = make_algorithm(algorithm, **opts)
    started = time.perf_counter()
    result = algo.place(topology, cloud, state, objective)
    return result, time.perf_counter() - started


def run_case(
    case: BenchCase,
    repeats: int = 3,
    calibration_s: Optional[float] = None,
    gap: bool = False,
    gap_time_limit_s: float = 60.0,
) -> Dict:
    """Benchmark one scenario; returns the ``BENCH_<name>.json`` payload.

    With ``gap=True`` the payload also carries the optimality-gap
    oracle's certified lower bound (``lower_bound`` key) and each
    algorithm entry gains ``score`` (the objective value it achieved)
    and ``optimality_gap`` (``(score - lb) / lb``; ``None`` when the
    bound is zero or the oracle could not certify one). The bound comes
    from a relaxation, so the reported gap is an *upper* bound on the
    true distance from optimal.
    """
    if calibration_s is None:
        calibration_s = calibration_unit_s()
    bound = None
    objective = None
    if gap:
        from repro.core.oracle import lower_bound

        scenario = case.scenario_factory()
        cloud = scenario.build_cloud()
        state = scenario.build_state(cloud, 0)
        topology = scenario.build_topology(case.size, 0)
        objective = scenario.objective(topology, cloud)
        bound = lower_bound(
            topology, cloud, state, objective,
            time_limit_s=gap_time_limit_s,
        )
    entries: List[Dict] = []
    for label, algorithm, opt_items, gated in case.algorithms:
        options = dict(opt_items)
        best_wall = float("inf")
        result: Optional[PlacementResult] = None
        for _ in range(max(1, repeats)):
            result, wall = _run_once(case, algorithm, options)
            best_wall = min(best_wall, wall)
        assert result is not None
        # One extra instrumented run reuses the repro.obs registry so the
        # emitted counters match what live telemetry would report.
        recorder = obs.TelemetryRecorder(record_span_events=False)
        with obs.use(recorder):
            counted, _ = _run_once(case, algorithm, options)
        registry_counters = {}
        for counter_name in _REGISTRY_COUNTERS:
            metric = recorder.registry.get(counter_name)
            total = 0.0
            if metric is not None:
                total = sum(value for _, _, value in metric.samples())
            registry_counters[counter_name] = total
        entries.append(
            {
                "algorithm": label,
                "gated": gated,
                "wall_s": best_wall,
                "normalized_cost": best_wall / calibration_s,
                "paths_expanded": result.stats.paths_expanded,
                "candidates_scored": result.stats.candidates_scored,
                "eg_bound_runs": result.stats.eg_bound_runs,
                "placement_hash": placement_fingerprint(result),
                "reserved_bw_mbps": result.reserved_bw_mbps,
                "new_active_hosts": result.new_active_hosts,
                "counted_placement_hash": placement_fingerprint(counted),
                "registry_counters": registry_counters,
            }
        )
        if bound is not None and objective is not None:
            score = objective.score(
                result.reserved_bw_mbps, result.new_active_hosts
            )
            entries[-1]["score"] = score
            lb = bound.score
            entries[-1]["optimality_gap"] = (
                (score - lb) / lb
                if lb > 0 and math.isfinite(lb)
                else None
            )
    payload = {
        "scenario": case.name,
        "size": case.size,
        "repeats": repeats,
        "calibration_unit_s": calibration_s,
        "algorithms": entries,
    }
    if bound is not None:
        from repro.core.oracle import gap_payload

        payload["lower_bound"] = gap_payload(bound)
    return payload


def _run_case_payload(
    payload: Tuple[str, int, float, bool, float]
) -> Dict:
    """Worker entry for a pooled suite run: look the case up by name.

    BenchCase factories are lambdas and cannot pickle; the name can, and
    the reference suite is import-time state every worker shares.
    """
    name, repeats, calibration_s, gap, gap_time_limit_s = payload
    case = next(c for c in REFERENCE_CASES if c.name == name)
    return run_case(
        case,
        repeats=repeats,
        calibration_s=calibration_s,
        gap=gap,
        gap_time_limit_s=gap_time_limit_s,
    )


def run_suite(
    cases: Optional[Sequence[BenchCase]] = None,
    repeats: int = 3,
    scenarios: Optional[Sequence[str]] = None,
    workers: int = 1,
    gap: bool = False,
    gap_time_limit_s: float = 60.0,
) -> List[Dict]:
    """Run the suite (optionally filtered by scenario name).

    ``workers > 1`` fans the *reference* cases across worker processes
    (custom ``cases`` run serially -- their factories do not pickle).
    Deterministic counters and placement hashes are unaffected; wall
    times can inflate when workers outnumber idle cores, so keep pooled
    runs for smoke checks, not for updating timing baselines.
    """
    selected = list(cases if cases is not None else REFERENCE_CASES)
    if scenarios:
        wanted = set(scenarios)
        unknown = wanted - {c.name for c in selected}
        if unknown:
            raise ValueError(f"unknown bench scenarios: {sorted(unknown)}")
        selected = [c for c in selected if c.name in wanted]
    calibration_s = calibration_unit_s()
    if workers > 1 and cases is None:
        from repro.sim.parallel import merge_outcomes, run_tasks

        payloads = [
            (c.name, repeats, calibration_s, gap, gap_time_limit_s)
            for c in selected
        ]
        outcomes = run_tasks(_run_case_payload, payloads, workers=workers)
        return merge_outcomes(outcomes)
    return [
        run_case(
            case,
            repeats=repeats,
            calibration_s=calibration_s,
            gap=gap,
            gap_time_limit_s=gap_time_limit_s,
        )
        for case in selected
    ]


def parallel_sweep_rows(
    sizes: Sequence[int],
    algorithms: Sequence[str],
    seeds: Sequence[int],
    deadline_s: Optional[float] = None,
    workers: int = 1,
) -> List[MeasurementRow]:
    """The aggregated multitier sweep rows that
    :func:`parallel_sweep_benchmark` fingerprints, at one worker count."""
    from repro.sim.runner import sweep

    return sweep(
        multitier_scenario(heterogeneous=True),
        algorithms,
        sizes,
        seeds=seeds,
        aggregate=True,
        deadline_s=deadline_s,
        workers=workers,
    )


def parallel_sweep_benchmark(
    workers: int = 4,
    sizes: Sequence[int] = (10, 20, 30, 40, 50),
    algorithms: Sequence[str] = ("egc", "egbw", "eg"),
    seeds: Sequence[int] = (0, 1, 2, 3),
    deadline_s: Optional[float] = None,
) -> Dict:
    """Serial-vs-parallel acceptance bench for the process-pool layer.

    Runs the same multitier sweep (5 sizes x 3 algorithms x 4 seeds by
    default) with ``workers=1`` and ``workers=N``, then reports both wall
    clocks, the speedup, and whether the aggregated rows are byte-
    identical (wall-clock ``runtime_s`` excluded via
    :func:`~repro.sim.metrics.rows_fingerprint`). The payload lands in
    ``BENCH_parallel_sweep.json``; ``cpu_count`` records how many cores
    the speedup had to work with.

    The default algorithm trio is fully deterministic under any machine
    load. DBA* is excluded on purpose: how much search fits before a
    *binding* wall-clock deadline depends on machine speed and
    contention, so two runs -- serial or parallel alike -- can return
    different incumbents. That is a property of deadline-bounded search,
    not of the pool.
    """
    from repro.sim.metrics import rows_fingerprint

    walls: Dict[int, float] = {}
    fingerprints: Dict[int, str] = {}
    row_counts: Dict[int, int] = {}
    for n in (1, workers):
        started = time.perf_counter()
        rows = parallel_sweep_rows(sizes, algorithms, seeds, deadline_s, n)
        walls[n] = time.perf_counter() - started
        fingerprints[n] = rows_fingerprint(rows)
        row_counts[n] = len(rows)
    return {
        "scenario": "parallel_sweep",
        "workload": "multitier",
        "sizes": list(sizes),
        "algorithms": list(algorithms),
        "seeds": list(seeds),
        "deadline_s": deadline_s,
        "cells": len(sizes) * len(algorithms) * len(seeds),
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "serial_wall_s": walls[1],
        "parallel_wall_s": walls[workers],
        "speedup": walls[1] / max(walls[workers], 1e-9),
        "rows": row_counts[1],
        "rows_identical": fingerprints[1] == fingerprints[workers],
        "rows_fingerprint_serial": fingerprints[1],
        "rows_fingerprint_parallel": fingerprints[workers],
    }


def service_benchmark(
    arrivals: int = 500,
    pods: int = 4,
    racks_per_pod: int = 2,
    hosts_per_rack: int = 8,
    mean_interarrival_s: float = 12.0,
    mean_lifetime_s: float = 400.0,
    horizon_s: float = 30.0,
    max_batch: int = 16,
    deadline_s: float = 180.0,
    update_fraction: float = 0.2,
    algorithm: str = "eg",
    seed: int = 0,
) -> Dict:
    """Throughput + determinism bench for the admission service.

    Runs one Poisson arrival storm (bursty, prioritized, with online
    tier-growth churn) through the batched pod-sharded pipeline twice --
    serial reference ordering and batched -- and reports sustained
    placements/sec, the virtual p99 admission latency, and the
    serial-equivalence gate (the two runs' decision-trajectory
    fingerprints must match byte for byte). The payload lands in
    ``BENCH_service.json``; ``audit_violations`` counts capacity-
    conservation findings across both runs (must be zero).
    """
    from repro.datacenter.builder import build_cloud
    from repro.service import ServiceConfig, run_service
    from repro.sim.arrivals import WorkloadTrace, default_app_factory

    cloud = build_cloud(
        num_datacenters=1,
        pods_per_dc=pods,
        racks_per_pod=racks_per_pod,
        hosts_per_rack=hosts_per_rack,
    )
    trace = WorkloadTrace.poisson_storm(
        arrivals,
        default_app_factory,
        mean_interarrival_s=mean_interarrival_s,
        mean_lifetime_s=mean_lifetime_s,
        seed=seed,
        burst_every_s=20 * mean_interarrival_s,
        burst_len_s=4 * mean_interarrival_s,
        burst_factor=4.0,
        priority_levels=3,
        update_fraction=update_fraction,
    )
    config = ServiceConfig(
        algorithm=algorithm,
        horizon_s=horizon_s,
        max_batch=max_batch,
        deadline_s=deadline_s,
    )
    serial = run_service(trace, cloud, config, serial=True)
    batched = run_service(trace, cloud, config)
    return {
        "scenario": "service",
        "arrivals": arrivals,
        "pods": pods,
        "hosts": cloud.num_hosts,
        "algorithm": algorithm,
        "horizon_s": horizon_s,
        "max_batch": max_batch,
        "deadline_s": deadline_s,
        "seed": seed,
        "admitted": batched.admitted,
        "rejected": batched.rejected,
        "expired": batched.expired,
        "cancelled": batched.cancelled,
        "updates_applied": batched.updates_applied,
        "updates_failed": batched.updates_failed,
        "batches": batched.batches,
        "escalations": batched.escalations,
        "shard_admissions": batched.shard_admissions,
        "peak_queue_depth": batched.peak_queue_depth,
        "latency_p50_s": batched.latency_p50_s,
        "latency_p95_s": batched.latency_p95_s,
        "latency_p99_s": batched.latency_p99_s,
        "placements_per_sec": batched.placements_per_sec,
        "serial_placements_per_sec": serial.placements_per_sec,
        "batched_wall_s": batched.wall_s,
        "serial_wall_s": serial.wall_s,
        "fingerprint_serial": serial.fingerprint,
        "fingerprint_batched": batched.fingerprint,
        "fingerprints_identical": serial.fingerprint == batched.fingerprint,
        "audit_violations": len(serial.audit_violations)
        + len(batched.audit_violations),
    }


def defrag_chaos_case(seed: int = 0) -> Dict:
    """Canned fragmented chaos scenario shared by the defrag gates.

    Host crashes with quick repairs scatter applications: each crash
    evacuates its tenants onto whatever hosts still have room, and the
    repaired host comes back empty -- survivors end up dispersed over
    long paths while revived capacity idles, exactly the fragmentation
    the background defragmenter exists to recover. No API faults are
    injected, so the defrag-off run is fully deterministic and the
    defrag-on run exercises planning and execution rather than retries.

    Returns :func:`~repro.sim.chaos.run_chaos` keyword arguments.
    """
    from repro.datacenter.builder import build_datacenter
    from repro.sim.scenarios import make_fault_plan

    cloud = build_datacenter(num_racks=2)
    plan = make_fault_plan(
        cloud, seed=seed, hosts=6, steps=24, recover_after_steps=2
    )
    return {
        "plan": plan,
        "cloud": cloud,
        "apps": 24,
        "app_vms": 10,
        "algorithm": "eg",
    }


def defrag_case_config() -> "object":
    """The canned scenario's defragmenter knobs.

    The move budget is sized so one whole 10-VM application fits in a
    single pass (the default budget of 8 rejects every 10-step plan).
    """
    from repro.defrag import DefragConfig

    return DefragConfig(algorithm="eg", max_moves_per_pass=16)


def defrag_benchmark(seed: int = 0) -> Dict:
    """Acceptance bench for the continuous defragmenter.

    Runs the canned fragmented chaos scenario three ways -- no defrag,
    defrag constructed but disabled, and defrag on -- and reports the
    fragmentation recovered, the disruption charged for it (moves and
    virtual VM-move-seconds), availability under both regimes, and the
    determinism gate: the disabled run's placement fingerprint must be
    bit-identical to the no-defrag baseline. The payload lands in
    ``BENCH_defrag.json``; ``leaks`` counts capacity-conservation
    findings across all three runs (must be zero).
    """
    from repro.defrag import DefragConfig
    from repro.sim.chaos import run_chaos

    case = defrag_chaos_case(seed)
    started = time.perf_counter()
    baseline = run_chaos(**case)
    baseline_wall_s = time.perf_counter() - started
    config = defrag_case_config()
    disabled = run_chaos(
        **case, defrag=DefragConfig(enabled=False, algorithm="eg")
    )
    started = time.perf_counter()
    defragged = run_chaos(**case, defrag=config)
    defrag_wall_s = time.perf_counter() - started
    leaks = (
        len(baseline.invariant_violations)
        + len(disabled.invariant_violations)
        + len(defragged.invariant_violations)
    )
    return {
        "scenario": "defrag",
        "seed": seed,
        "apps": case["apps"],
        "app_vms": case["app_vms"],
        "hosts": case["cloud"].num_hosts,
        "hosts_failed": defragged.hosts_failed,
        "algorithm": case["algorithm"],
        "frag_recovered": defragged.frag_recovered,
        "defrag_passes": defragged.defrag_passes,
        "defrag_aborted_passes": defragged.defrag_aborted_passes,
        "defrag_replans": defragged.defrag_replans,
        "defrag_moves": defragged.defrag_moves,
        "defrag_move_seconds": defragged.defrag_move_seconds,
        "availability_baseline": baseline.availability,
        "availability_defrag": defragged.availability,
        "baseline_wall_s": baseline_wall_s,
        "defrag_wall_s": defrag_wall_s,
        "fingerprint_baseline": baseline.fingerprint,
        "fingerprint_disabled": disabled.fingerprint,
        "fingerprint_defrag": defragged.fingerprint,
        "disabled_fingerprint_identical": (
            disabled.fingerprint == baseline.fingerprint
        ),
        "leaks": leaks,
    }


def elastic_benchmark(
    arrivals: int = 1000,
    pods: int = 4,
    racks_per_pod: int = 2,
    hosts_per_rack: int = 8,
    mean_interarrival_s: float = 90.0,
    mean_lifetime_s: float = 7200.0,
    scale_every_s: float = 900.0,
    horizon_s: float = 60.0,
    max_batch: int = 16,
    algorithm: str = "eg",
    seed: int = 0,
) -> Dict:
    """Long-horizon elasticity bench for the autoscaling loop.

    Generates one arrival storm spanning at least a simulated day
    (``arrivals * mean_interarrival_s`` virtual seconds) in which every
    tenant emits a scale-evaluation event each ``scale_every_s`` seconds
    of its lifetime, then runs it through the service pipeline four ways:
    a scaling-free baseline, scaling constructed but ``enabled=False``
    (must be bit-identical to the baseline), and the same scaled
    configuration twice (the two fingerprints must be bit-identical to
    each other). The payload lands in ``BENCH_elastic.json``; ``leaks``
    counts capacity-conservation findings across all four runs (must be
    zero).
    """
    from repro.datacenter.builder import build_cloud
    from repro.scaling import ScalingConfig
    from repro.service import ServiceConfig, run_service
    from repro.sim.arrivals import WorkloadTrace, default_app_factory

    cloud = build_cloud(
        num_datacenters=1,
        pods_per_dc=pods,
        racks_per_pod=racks_per_pod,
        hosts_per_rack=hosts_per_rack,
    )
    trace = WorkloadTrace.poisson_storm(
        arrivals,
        default_app_factory,
        mean_interarrival_s=mean_interarrival_s,
        mean_lifetime_s=mean_lifetime_s,
        seed=seed,
        priority_levels=3,
        update_fraction=0.1,
        scale_every_s=scale_every_s,
    )
    scale_events = sum(1 for e in trace.events if e.kind == "scale")
    span_s = trace.events[-1].time if trace.events else 0.0
    base_config = ServiceConfig(
        algorithm=algorithm, horizon_s=horizon_s, max_batch=max_batch
    )
    scaled_config = ServiceConfig(
        algorithm=algorithm,
        horizon_s=horizon_s,
        max_batch=max_batch,
        scaling=ScalingConfig(
            policy="threshold",
            tier_prefix="vm",
            scale_out_at=0.70,
            scale_in_at=0.35,
            step_fraction=0.34,
            cooldown_s=scale_every_s,
            seed=seed,
            consolidate=True,
        ),
    )
    disabled_config = ServiceConfig(
        algorithm=algorithm,
        horizon_s=horizon_s,
        max_batch=max_batch,
        scaling=ScalingConfig(enabled=False),
    )
    started = time.perf_counter()
    baseline = run_service(trace, cloud, base_config)
    baseline_wall_s = time.perf_counter() - started
    disabled = run_service(trace, cloud, disabled_config)
    started = time.perf_counter()
    scaled = run_service(trace, cloud, scaled_config)
    scaled_wall_s = time.perf_counter() - started
    repeat = run_service(trace, cloud, scaled_config)
    leaks = (
        len(baseline.audit_violations)
        + len(disabled.audit_violations)
        + len(scaled.audit_violations)
        + len(repeat.audit_violations)
    )
    return {
        "scenario": "elastic",
        "seed": seed,
        "arrivals": arrivals,
        "hosts": cloud.num_hosts,
        "algorithm": algorithm,
        "trace_span_s": span_s,
        "scale_events": scale_events,
        "scale_every_s": scale_every_s,
        "admitted": scaled.admitted,
        "rejected": scaled.rejected,
        "scale_evaluations": scaled.scale_evaluations,
        "scale_outs": scaled.scale_outs,
        "scale_ins": scaled.scale_ins,
        "scale_out_failures": scaled.scale_out_failures,
        "vms_added": scaled.vms_added,
        "vms_removed": scaled.vms_removed,
        "scale_consolidation_moves": scaled.scale_consolidation_moves,
        "baseline_wall_s": baseline_wall_s,
        "scaled_wall_s": scaled_wall_s,
        "fingerprint_baseline": baseline.fingerprint,
        "fingerprint_disabled": disabled.fingerprint,
        "fingerprint_scaled": scaled.fingerprint,
        "fingerprint_repeat": repeat.fingerprint,
        "disabled_fingerprint_identical": (
            disabled.fingerprint == baseline.fingerprint
        ),
        "scaled_fingerprints_identical": (
            scaled.fingerprint == repeat.fingerprint
        ),
        "leaks": leaks,
    }


def write_results(results: Sequence[Dict], out_dir: str) -> List[str]:
    """Write one ``BENCH_<scenario>.json`` per result; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for payload in results:
        path = os.path.join(out_dir, f"BENCH_{payload['scenario']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


#: per-algorithm fields that must match the baseline exactly (deterministic)
_EXACT_FIELDS = (
    "paths_expanded",
    "candidates_scored",
    "eg_bound_runs",
    "placement_hash",
    "reserved_bw_mbps",
    "new_active_hosts",
)


def compare_to_baseline(
    results: Sequence[Dict],
    baseline: Dict,
    tolerance: float = 0.25,
) -> List[str]:
    """Regression check against a committed baseline; returns failures.

    Gated algorithms must reproduce the baseline's deterministic work
    counters and placement fingerprint exactly, and their normalized cost
    (wall seconds / in-process calibration unit) may exceed the baseline's
    by at most ``tolerance`` (e.g. 0.25 = +25%).
    """
    failures: List[str] = []
    baseline_by_scenario = {
        entry["scenario"]: entry for entry in baseline.get("scenarios", [])
    }
    for payload in results:
        scenario = payload["scenario"]
        base = baseline_by_scenario.get(scenario)
        if base is None:
            failures.append(f"{scenario}: missing from baseline")
            continue
        base_algos = {e["algorithm"]: e for e in base["algorithms"]}
        for entry in payload["algorithms"]:
            if not entry["gated"]:
                continue
            label = f"{scenario}/{entry['algorithm']}"
            base_entry = base_algos.get(entry["algorithm"])
            if base_entry is None:
                failures.append(f"{label}: missing from baseline")
                continue
            for fieldname in _EXACT_FIELDS:
                if entry[fieldname] != base_entry[fieldname]:
                    failures.append(
                        f"{label}: {fieldname} changed "
                        f"{base_entry[fieldname]!r} -> {entry[fieldname]!r}"
                    )
            allowed = base_entry["normalized_cost"] * (1.0 + tolerance)
            if entry["normalized_cost"] > allowed:
                failures.append(
                    f"{label}: normalized cost {entry['normalized_cost']:.1f} "
                    f"exceeds baseline {base_entry['normalized_cost']:.1f} "
                    f"by more than {tolerance:.0%}"
                )
    return failures


def baseline_payload(results: Sequence[Dict]) -> Dict:
    """The committed-baseline document for a suite run."""
    return {
        "tolerance_hint": 0.25,
        "scenarios": [
            {
                "scenario": payload["scenario"],
                "size": payload["size"],
                "algorithms": [
                    {
                        key: entry[key]
                        for key in ("algorithm", "normalized_cost")
                        + _EXACT_FIELDS
                    }
                    for entry in payload["algorithms"]
                    if entry["gated"]
                ],
            }
            for payload in results
        ],
    }
