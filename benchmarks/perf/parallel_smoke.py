#!/usr/bin/env python
"""CI smoke check for the parallel experiment-execution layer.

Runs one small multitier sweep twice -- serially and fanned across
worker processes -- and exits non-zero unless the aggregated rows are
identical (wall-clock ``runtime_s`` aside, which the fingerprint
excludes). This is the determinism contract of ``repro.sim.parallel``:
``--workers N`` must be a pure wall-clock optimization.

It then re-runs the configuration recorded in the committed
``BENCH_parallel_sweep.json`` serially and exits non-zero unless its row
fingerprint equals the committed ``rows_fingerprint_serial``, so the
committed file cannot drift from what the code produces.

Usage (from the repository root):

    PYTHONPATH=src python benchmarks/perf/parallel_smoke.py [--workers 2]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0,
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src"),
)

from repro.bench import parallel_sweep_rows  # noqa: E402
from repro.sim.metrics import rows_fingerprint  # noqa: E402
from repro.sim.runner import sweep  # noqa: E402
from repro.sim.scenarios import multitier_scenario  # noqa: E402

# The deterministic greedy trio: identical output under any machine
# load. DBA* is deliberately absent -- how much search fits before a
# binding wall-clock deadline varies with contention, serial or not.
SIZES = [10, 20]
ALGORITHMS = ["egc", "egbw", "eg"]
SEEDS = (0, 1)
COMMITTED = os.path.join(os.path.dirname(__file__), "BENCH_parallel_sweep.json")


def check_committed() -> int:
    """Serial fingerprint of the committed bench configuration vs the file."""
    with open(COMMITTED) as fh:
        committed = json.load(fh)
    rows = parallel_sweep_rows(
        committed["sizes"],
        committed["algorithms"],
        committed["seeds"],
        committed["deadline_s"],
    )
    fingerprint = rows_fingerprint(rows)
    expected = committed["rows_fingerprint_serial"]
    print(f"committed bench fingerprint: {expected}")
    print(f"bench config serial now:     {fingerprint}")
    if fingerprint != expected:
        print("FAIL: BENCH_parallel_sweep.json is stale; regenerate it with "
              "`repro bench --parallel-sweep`")
        return 1
    print("OK: committed bench fingerprint reproduced")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    scenario = multitier_scenario()
    serial = sweep(scenario, ALGORITHMS, SIZES, seeds=SEEDS)
    parallel = sweep(
        scenario,
        ALGORITHMS,
        SIZES,
        seeds=SEEDS,
        workers=args.workers,
    )

    fp_serial = rows_fingerprint(serial)
    fp_parallel = rows_fingerprint(parallel)
    print(f"rows: serial={len(serial)} parallel={len(parallel)}")
    print(f"fingerprint serial:   {fp_serial}")
    print(f"fingerprint workers={args.workers}: {fp_parallel}")
    if fp_serial != fp_parallel:
        print("FAIL: parallel sweep diverged from the serial loop")
        for a, b in zip(serial, parallel):
            if a != b:
                print(f"  serial:   {a}")
                print(f"  parallel: {b}")
        return 1
    print("OK: parallel rows identical to serial")
    return check_committed()


if __name__ == "__main__":
    raise SystemExit(main())
