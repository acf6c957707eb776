"""Measurement helpers of the benchmark, free of any dependency on ``repro``.

* :func:`tail_percentile` -- the highest percentile of a fixed ladder that
  still has samples of at least ten distinct calls beyond it, with the
  sample count.
* :class:`SpanRecorder` -- in-memory spans with parent links, per-name
  call counts, total time and self time (duration minus the part covered
  by child spans).
* :func:`lindley_replay` / :func:`max_rate` -- replay measured per-job
  service times through a single-server FIFO queue at a compressed
  arrival rate, and find the highest rate that meets a latency limit
  without a growing backlog.
* :func:`calibration_unit_s` -- a fixed loop that measures the host's
  current speed.
"""

from __future__ import annotations

import json
import math
import resource
import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

#: percentiles the tail metric may report, lowest first
TAIL_LADDER = (0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 0.9999)

#: distinct calls whose samples must lie beyond the reported percentile
TAIL_MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the value at 1-indexed rank ``ceil(q*n)``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def tail_percentile(
    values: Sequence[float], calls: Optional[Sequence[Hashable]] = None
) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` for the highest ladder percentile whose
    nearest-rank position leaves samples from at least
    :data:`TAIL_MIN_BEYOND` distinct calls above it.

    ``calls[i]`` names the call that produced ``values[i]``; requests
    decided by one call share its duration, so they count once. Without
    ``calls`` every sample is its own call. Falls back to the median when
    even that leaves fewer.
    """
    n = len(values)
    if not n:
        raise ValueError("percentile of an empty sample")
    order = sorted(range(n), key=values.__getitem__)
    ids = calls if calls is not None else range(n)
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        rank = min(n, max(1, math.ceil(q * n)))
        if len({ids[i] for i in order[rank:]}) >= TAIL_MIN_BEYOND:
            chosen = q
    rank = min(n, max(1, math.ceil(chosen * n)))
    return values[order[rank - 1]], chosen, n


def median(values: Sequence[float]) -> float:
    """The median (mean of the middle two for even counts)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB (Linux ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: seconds :func:`calibration_unit_s` takes on a 2-core x86 machine; the
#: end-to-end times are reported at this speed of the host
CALIBRATION_NOMINAL_S = 0.03


def calibration_unit_s() -> float:
    """Seconds of a fixed pure-Python integer loop: the host's speed now.

    The benchmark runs it before every set-up and every timed call of a
    pass, short enough to sample a 9 s ``paper-search`` pass 24 times. On
    a shared host the interpreter's speed drifts by a third over tens of
    seconds, and this loop drifts with it; a dict/float loop and a
    small-numpy loop tracked the workloads less well.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(450_000):
        acc += i * i
    elapsed = time.perf_counter() - started
    assert acc > 0
    return elapsed


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class SpanRecorder:
    """Spans kept in memory: ``(name, start, end, parent, trace)`` rows.

    A span opened while another is open becomes its child and shares its
    trace id; a span opened at top level starts a new trace. Per name the
    recorder accumulates calls, total seconds and self seconds, where self
    time is the duration minus the time covered by direct children.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        # open spans: [name, start, child seconds, span id, trace id]
        self._stack: List[list] = []
        self._next_id = 0
        self._next_trace = 0

    def open(self, name: str, start: float) -> None:
        if self._stack:
            trace = self._stack[-1][4]
        else:
            trace = self._next_trace
            self._next_trace += 1
        self._stack.append([name, start, 0.0, self._next_id, trace])
        self._next_id += 1

    def close(self, end: float) -> None:
        name, start, child_s, span_id, trace = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][3] if self._stack else -1
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        self.spans.append((name, start, end, parent, trace))

    def write_jsonl(self, path: str) -> None:
        """One JSON row per span, in closing order (ids are opening order)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, trace in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "trace": trace}
                    )
                )
                fh.write("\n")


# ----------------------------------------------------------------------
# open-loop replay
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One unit of server work in the replay.

    Attributes:
        due_s: virtual time the job is released (a drain boundary).
        service_s: measured wall seconds the job kept the server busy.
        submits_s: virtual submit times of the requests the job decides.
    """

    due_s: float
    service_s: float
    submits_s: Tuple[float, ...]


@dataclass(frozen=True)
class Replay:
    """The outcome of replaying jobs at one compression factor."""

    latencies_s: Tuple[float, ...]
    utilization: float

    def p99_s(self) -> float:
        return nearest_rank(self.latencies_s, 0.99)


def lindley_replay(jobs: Sequence[Job], speedup: float) -> Replay:
    """Single-server FIFO replay of ``jobs`` with time compressed ``speedup``x.

    Compressing every virtual time by the same factor keeps the drain
    grouping, hence every decision and its measured service time, valid.
    Job ``k`` starts at ``max(due_k / speedup, finish_{k-1})`` (the Lindley
    recurrence) and each request it decides is timed from its own
    compressed submit time to the job's finish. Utilization is the
    summed service time over the compressed span of due times; at 1 or
    above the backlog grows without bound.
    """
    if not jobs:
        raise ValueError("replay of no jobs")
    finish = float("-inf")
    latencies: List[float] = []
    busy = 0.0
    for job in jobs:
        start = max(job.due_s / speedup, finish)
        finish = start + job.service_s
        busy += job.service_s
        latencies.extend(finish - s / speedup for s in job.submits_s)
    span = (jobs[-1].due_s - jobs[0].due_s) / speedup
    utilization = busy / span if span > 0 else float("inf")
    return Replay(tuple(latencies), utilization)


def replay_passes(replay: Replay, limit_s: float) -> bool:
    """True when p99 latency meets ``limit_s`` and the backlog is bounded."""
    return replay.utilization < 1.0 and replay.p99_s() <= limit_s


def base_rate_per_s(jobs: Sequence[Job]) -> float:
    """Requests per virtual second of the uncompressed trace."""
    submits = [s for job in jobs for s in job.submits_s]
    span = max(submits) - min(submits)
    if span <= 0:
        raise ValueError("requests span no virtual time")
    return len(submits) / span


def max_rate(
    jobs: Sequence[Job],
    limit_s: float,
    grid_step: float = 2 ** 0.25,
    bisections: int = 40,
) -> float:
    """Highest arrival rate (requests/s) whose replay passes ``limit_s``.

    Scans compression factors upward on a geometric grid until the
    backlog grows (utilization >= 1), takes the highest passing grid
    point, and bisects between it and the next grid point. Returns 0.0
    when no rate passes.
    """
    base = base_rate_per_s(jobs)
    busy = sum(job.service_s for job in jobs)
    due_span = jobs[-1].due_s - jobs[0].due_s
    # utilization reaches 1 at speedup = due_span / busy
    ceiling = due_span / busy if busy > 0 else float("inf")
    best: Optional[float] = None
    failing: Optional[float] = None
    speedup = 1.0
    while speedup < ceiling:
        if replay_passes(lindley_replay(jobs, speedup), limit_s):
            best, failing = speedup, None
        elif best is not None and failing is None:
            failing = speedup
        speedup *= grid_step
    if best is None:
        return 0.0
    hi = failing if failing is not None else min(speedup, ceiling)
    lo = best
    for _ in range(bisections):
        mid = (lo + hi) / 2.0
        if replay_passes(lindley_replay(jobs, mid), limit_s):
            lo = mid
        else:
            hi = mid
    return lo * base


def latency_at_rate(jobs: Sequence[Job], rate_per_s: float) -> float:
    """p99 replay latency, in seconds, at a fixed arrival rate."""
    return lindley_replay(jobs, rate_per_s / base_rate_per_s(jobs)).p99_s()
