"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-search --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: set-up is
repeated three times (median reported), then whole passes of the
workload run. ``--seconds`` sets how many: the seconds over the
workload's nominal pass time on a 2-core x86 machine, so that a parent
and a change always measure the same work. The storms replay each
pass's inputs twice, one round of all passes after the other, and time
every call by the faster of its two replays. A fixed loop runs before
every set-up and every timed call of a pass (each placement of
``paper-search``, each storm); the end-to-end times are scaled by the run's
median loop time to the host speed of the 2-core machine, so that a
host whose speed drifts during and between runs reads steadier; the
unscaled values are in the detail line. ``--trace 1`` alternates
three untraced and two traced passes of the same inputs and reports the
per-layer metrics, the storm-only service metrics and the tracing
overhead; its spans are written to ``.perfbench-out/``.

Every run checks the decisions: each pass's fingerprint must equal the
one committed in ``perfbench/fingerprints.json`` for the seed and pass
when there is one, and audits and constraint checks must find nothing.
The storms' call timers must have seen every call the library counted.
A traced run also requires the traced passes to decide exactly like
the untraced passes of the same inputs, with its layer counts matching the
library's own counters. A failed check makes ``correct`` false, counts
in ``failed`` and exits with code 1.

The last line of standard output is the result object; the line before
it holds the details (environment, tail percentile, storm metrics).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional, Tuple

from harness import (
    CALIBRATION_NOMINAL_S,
    calibration_unit_s,
    latency_at_rate,
    max_rate,
    median,
    peak_rss_mb,
    tail_percentile,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: p99 latency limit of the open-loop rate search, and the fixed rates
#: (requests/s) whose p99 is reported beside it
LATENCY_LIMIT_S = 0.15
FIXED_RATES_PER_S = (50, 100, 200)
SETUP_REPEATS = 3
OUT_DIR = ".perfbench-out"


def _import_library() -> float:
    """Import ``repro`` from this checkout's ``src``; returns the seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no library sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    started = time.perf_counter()
    import repro
    import repro.service  # noqa: F401  (the storms' whole stack)

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}\n")
        sys.exit(2)
    return time.perf_counter() - started


def _environment(workload: str, seed: int) -> Dict[str, object]:
    from repro.core.kernel import get_kernel

    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "kernel": get_kernel(),
        "REPRO_KERNEL": os.environ.get("REPRO_KERNEL"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def _committed_fingerprints(workload: str, seed: int) -> List[str]:
    """Per-pass fingerprints recorded for this workload and seed, if any."""
    with open(os.path.join(HERE, "fingerprints.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed), [])


def _baseline_kernel(workload: str) -> Optional[str]:
    """Kernel of the first committed trajectory point of this workload."""
    with open(os.path.join(HERE, "results", "trajectory.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            point = json.loads(line)
            if point["env"]["workload"] == workload:
                return point["env"]["kernel"]
    return None


class Checks:
    """Named correctness checks; a failure is reported and counted."""

    def __init__(self) -> None:
        self.run = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.run += 1
        if not ok:
            self.failures.append(what)
            sys.stderr.write(f"perfbench: check failed: {what}\n")


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


def _storm_metrics(passes) -> Dict[str, Tuple[float, str]]:
    """Lifecycle, open-loop replay and virtual-latency metrics of storm
    passes (0 for a workload without drains). Replay metrics are taken
    per pass and reported as the median over passes."""
    names = [("lifecycle_p50_ms", "ms"), ("lifecycle_tail_ms", "ms"),
             ("max_rate_per_s", "1/s"), ("virtual_p99_s", "s")]
    names += [(f"p99_ms_at_{rate}_per_s", "ms") for rate in FIXED_RATES_PER_S]
    if not passes[0].jobs:
        return {name: (0.0, unit) for name, unit in names}
    lifecycle = [ms for p in passes for ms in p.lifecycle_ms]
    values = {
        "lifecycle_p50_ms": median(lifecycle),
        "lifecycle_tail_ms": tail_percentile(lifecycle)[0],
        "max_rate_per_s": median([max_rate(p.jobs, LATENCY_LIMIT_S) for p in passes]),
        "virtual_p99_s": median([p.virtual_p99_s for p in passes]),
    }
    for rate in FIXED_RATES_PER_S:
        values[f"p99_ms_at_{rate}_per_s"] = median(
            [latency_at_rate(p.jobs, rate) * 1000.0 for p in passes])
    return {name: (values[name], unit) for name, unit in names}


def _check_passes(passes, committed: List[str], checks: Checks) -> None:
    """Committed fingerprints and zero violations, pass by pass."""
    for index, (p, expected) in enumerate(zip(passes, committed)):
        checks.expect(
            p.fingerprint == expected,
            f"pass {index} fingerprint {p.fingerprint} != committed {expected}",
        )
    violations = [v for p in passes for v in p.violations]
    checks.expect(not violations, f"audit/constraint violations: {violations[:3]}")


def _check_timers(passes, checks: Checks) -> None:
    """The untraced timers saw every call the library counted."""
    for index, p in enumerate(passes):
        for name, seen in p.timed.items():
            checks.expect(
                seen == p.counters[name],
                f"pass {index}: timers saw {seen} {name}, library {p.counters[name]}",
            )


def _cross_check(workload: str, untraced, trace, checks: Checks) -> None:
    """Traced counts against the library's counters of the same inputs."""
    calls = trace.spans.calls
    counts = trace.counts
    lib = untraced.counters
    if workload == "paper-search":
        place = counts["core.astar.BAStar.place"]
        pairs = [
            ("core.astar.BAStar.place.calls", calls.get("core.astar.BAStar.place", 0),
             lib["placements"]),
            ("SearchStats.candidates_scored", place.get("candidates_scored", 0),
             lib["candidates_scored"]),
            ("SearchStats.paths_expanded", place.get("paths_expanded", 0),
             lib["paths_expanded"]),
        ]
    else:
        removed = counts["core.online.remove_vms_from_tier"]
        pairs = [
            ("service.batch.admit_batch.calls (ServiceReport.drains)",
             calls.get("service.batch.admit_batch", 0), lib["drains"]),
            ("ServiceReport.batches", counts["service.batch.admit_batch"].get("batches", 0),
             lib["batches"]),
            ("ScalingStats.evaluations",
             calls.get("scaling.engine.AutoScaler.evaluate", 0), lib["scale_evaluations"]),
            ("service.coordinator.update.calls",
             calls.get("service.coordinator.update", 0), lib["coordinator_updates"]),
            ("ScalingStats.scale_ins",
             calls.get("core.online.remove_vms_from_tier", 0) - removed.get("failures", 0),
             lib["scale_ins"]),
        ]
    for what, traced_count, library_count in pairs:
        checks.expect(
            traced_count == library_count,
            f"traced {what} {traced_count} != library {library_count}",
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_library()
    from layers import Trace, layer_metrics
    from workloads import WORKLOADS, fastest

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    env = _environment(args.workload, args.seed)
    baseline_kernel = _baseline_kernel(args.workload)
    comparable = baseline_kernel in (None, env["kernel"])
    if not comparable:
        sys.stderr.write(
            f"perfbench: kernel {env['kernel']} differs from the trajectory's "
            f"{baseline_kernel}; results are not comparable\n"
        )

    # a fixed number of passes per --seconds, so that a parent and a
    # change always measure the same work; a traced run replays pass 0
    kind = WORKLOADS[args.workload]
    replays = kind.replays
    count = max(1, round(args.seconds / (kind.nominal_pass_s * replays)))
    if args.trace:
        count = 1
    # the host's speed, sampled before every set-up and timed call
    units: List[float] = []
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = WORKLOADS[args.workload](args.seed, count)
        units.append(calibration_unit_s())
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    setup_s = import_s + median(setups)

    def run_pass(k: int, trace: Optional[Trace] = None):
        return workload.run_pass(
            k, trace=trace, probe=lambda: units.append(calibration_unit_s()))

    committed = _committed_fingerprints(args.workload, args.seed)
    checks = Checks()
    detail: Dict[str, object] = {"env": env, "comparable": comparable,
                                 "baseline_kernel": baseline_kernel}

    if args.trace == 0:
        # round after round, so that a slow spell of the host falls on
        # different passes in each round
        rounds = [[run_pass(k) for k in range(count)] for _ in range(replays)]
        passes = [p for round_ in rounds for p in round_]
        for round_ in rounds:
            _check_passes(round_, committed, checks)
        _check_timers(passes, checks)
        best = []
        for k, group in enumerate(zip(*rounds)):
            alike = len({p.fingerprint for p in group}) == 1
            checks.expect(alike, f"pass {k}: replays make the same decisions")
            best.append(fastest(list(group)) if alike else group[0])
        decisions = [ms for p in best for ms in p.decision_ms]
        calls = [(k, c) for k, p in enumerate(best) for c in p.decision_calls]
        tail, tail_q, samples = tail_percentile(decisions, calls)
        measured = {
            "setup_s": setup_s,
            "decision_p50_ms": median(decisions),
            "decision_tail_ms": tail,
            "placements_per_s": sum(p.admitted for p in best) / sum(p.wall_s for p in best),
        }
        # at the nominal host speed: times shrink, rates grow on a slow host
        scale = CALIBRATION_NOMINAL_S / median(units)
        metrics = {
            "setup_s": (setup_s * scale, "s"),
            "decision_p50_ms": (measured["decision_p50_ms"] * scale, "ms"),
            "decision_tail_ms": (tail * scale, "ms"),
            "placements_per_s": (measured["placements_per_s"] / scale, "1/s"),
            "reserved_bw_mbps": (_mean([v for p in best for v in p.reserved_bw_mbps]),
                                 "Mbps"),
            "new_hosts": (_mean([v for p in best for v in p.new_hosts]), "count"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }
        storm = _storm_metrics(best)
        detail.update({
            "measured": measured,
            "replays": replays,
            "pass_wall_s": [p.wall_s for p in passes],
            "decision_tail_percentile": tail_q,
            "decision_samples": samples,
            "lifecycle_samples": sum(len(p.lifecycle_ms) for p in best),
            "latency_limit_s": LATENCY_LIMIT_S,
            "storm": {k: v for k, (v, _) in storm.items()},
        })
    else:
        # pass 0 untraced, traced, untraced, traced, untraced: the overhead
        # compares medians, so one noisy pass does not decide it; the layer
        # metrics come from the first traced pass
        trace = Trace()
        passes, traced_passes = [], []
        for k in range(5):
            if k % 2:
                traced_passes.append(run_pass(0, trace=trace if k == 1 else Trace()))
            else:
                passes.append(run_pass(0))
        _check_passes(passes[:1], committed, checks)
        checks.expect(
            len({p.fingerprint for p in passes + traced_passes}) == 1,
            "traced and untraced passes make the same decisions",
        )
        checks.expect(
            not any(p.violations for p in traced_passes), "no violations under tracing")
        _check_timers(passes, checks)
        _cross_check(args.workload, passes[0], trace, checks)
        metrics = layer_metrics(trace)
        metrics.update(_storm_metrics(passes))
        metrics["trace_overhead"] = (
            median([p.wall_s for p in traced_passes])
            / median([p.wall_s for p in passes]) - 1.0,
            "ratio",
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        trace.spans.write_jsonl(spans_path)
        detail.update({"spans": spans_path, "span_count": len(trace.spans.spans)})

    env["calibration_unit_s"] = median(units)
    detail["calibration_units_s"] = units
    attempted = sum(p.attempted for p in passes) + checks.run
    failed = sum(p.failed for p in passes) + len(checks.failures)
    if args.trace == 0:
        detail["fail_ratio"] = failed / attempted
    else:
        metrics["fail_ratio"] = (failed / attempted, "ratio")
    detail.update({"fingerprints": [p.fingerprint for p in passes[:count]],
                   "committed_fingerprints": committed,
                   "checks_run": checks.run, "checks_failed": checks.failures})
    correct = not checks.failures
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
