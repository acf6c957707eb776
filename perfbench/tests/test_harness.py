"""Tests of the benchmark's measurement helpers on hand-computed inputs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import pytest

from harness import (
    Job,
    SpanRecorder,
    latency_at_rate,
    lindley_replay,
    max_rate,
    median,
    nearest_rank,
    replay_passes,
    tail_percentile,
)


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------


def test_nearest_rank_picks_an_input_value():
    assert nearest_rank([3.0, 1.0, 2.0], 0.5) == 2.0
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0


@pytest.mark.parametrize(
    "n, percentile, value",
    [
        # p90 leaves exactly ten samples above rank 90; p95 only five
        (100, 0.90, 90.0),
        # p99 leaves ten above rank 990; p99.9 one
        (1000, 0.99, 990.0),
        # p75 leaves 12 above rank 36; p90 leaves 4
        (48, 0.75, 36.0),
        # only the median leaves ten: ranks 11..20 lie above rank 10
        (20, 0.50, 10.0),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile, value):
    samples = [float(i) for i in range(n, 0, -1)]
    assert tail_percentile(samples) == (value, percentile, n)


def test_tail_counts_requests_of_one_call_once():
    # 20 calls deciding 5 requests each: p90 leaves 10 samples but only
    # 2 calls beyond it, p75 5 calls; only the median leaves 10 calls
    values = [float(i // 5) for i in range(100)]
    calls = [i // 5 for i in range(100)]
    assert tail_percentile(values, calls) == (9.0, 0.50, 100)
    assert tail_percentile(values) == (17.0, 0.90, 100)


def test_tail_falls_back_to_median_with_few_samples():
    assert tail_percentile([5.0, 1.0, 3.0, 2.0, 4.0]) == (3.0, 0.50, 5)


def test_median_of_even_count_averages_the_middle_pair():
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert median([2.0, 9.0, 1.0]) == 2.0


# ----------------------------------------------------------------------
# spans and self time
# ----------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    rec = SpanRecorder()
    rec.open("a", 0.0)
    rec.open("b", 1.0)
    rec.close(3.0)          # b: 2 s, no children
    rec.open("c", 4.0)
    rec.open("d", 4.5)
    rec.close(5.0)          # d: 0.5 s inside c
    rec.close(6.0)          # c: 2 s, 1.5 s self
    rec.close(10.0)         # a: 10 s, minus b and c = 6 s self
    assert rec.calls == {"a": 1, "b": 1, "c": 1, "d": 1}
    assert rec.total_s == {"a": 10.0, "b": 2.0, "c": 2.0, "d": 0.5}
    assert rec.self_s == {"a": 6.0, "b": 2.0, "c": 1.5, "d": 0.5}


def test_spans_link_parents_and_share_a_trace_per_root():
    rec = SpanRecorder()
    rec.open("a", 0.0)
    rec.open("b", 1.0)
    rec.close(2.0)
    rec.close(3.0)
    rec.open("a", 4.0)
    rec.close(5.0)
    by_name = [(name, parent, trace) for name, _, _, parent, trace in rec.spans]
    # span ids follow opening order: a=0, b=1, second a=2
    assert by_name == [("b", 0, 0), ("a", -1, 0), ("a", -1, 1)]
    assert rec.self_s["a"] == pytest.approx(3.0)


def test_repeated_calls_accumulate():
    rec = SpanRecorder()
    for start in (0.0, 10.0, 20.0):
        rec.open("x", start)
        rec.close(start + 0.25)
    assert rec.calls["x"] == 3
    assert rec.total_s["x"] == pytest.approx(0.75)
    assert rec.self_s["x"] == pytest.approx(0.75)


# ----------------------------------------------------------------------
# Lindley replay and the highest passing rate
# ----------------------------------------------------------------------

JOBS = [
    Job(0.0, 3.0, (-2.0, 0.0)),
    Job(10.0, 12.0, (5.0,)),
    Job(20.0, 1.0, (20.0,)),
]


def test_lindley_replay_uncompressed():
    replay = lindley_replay(JOBS, 1.0)
    # job 0 runs 0..3; job 1 runs 10..22; job 2 waits for job 1: 22..23
    assert replay.latencies_s == (5.0, 3.0, 17.0, 3.0)
    assert replay.utilization == pytest.approx(16.0 / 20.0)


def test_lindley_replay_compressed_twice():
    replay = lindley_replay(JOBS, 2.0)
    # due times 0, 5, 10: job 0 runs 0..3, job 1 5..17, job 2 17..18
    assert replay.latencies_s == (4.0, 3.0, 14.5, 8.0)
    assert replay.utilization == pytest.approx(16.0 / 10.0)
    assert not replay_passes(replay, 100.0)  # backlog grows


def _even_jobs(wait_s: float):
    # 100 jobs one virtual second apart, 10 ms each; every request was
    # submitted ``wait_s`` before its job is due
    return [Job(float(k), 0.01, (k - wait_s,)) for k in range(100)]


def test_max_rate_bound_by_backlog():
    # no queueing while 1/c >= 0.01, so latency stays 10 ms; utilization
    # c/99 reaches 1 at c = 99, i.e. 99 * (100 requests / 99 s) = 100/s
    assert max_rate(_even_jobs(0.0), 0.05) == pytest.approx(100.0, abs=1e-6)


def test_max_rate_skips_rates_where_batching_wait_misses_the_limit():
    # latency 1/c + 0.01 misses 50 ms below c = 25 and meets it above
    jobs = _even_jobs(1.0)
    assert not replay_passes(lindley_replay(jobs, 20.0), 0.05)
    assert replay_passes(lindley_replay(jobs, 30.0), 0.05)
    assert max_rate(jobs, 0.05) == pytest.approx(100.0, abs=1e-6)


def test_max_rate_zero_when_service_alone_misses_the_limit():
    assert max_rate(_even_jobs(0.0), 0.005) == 0.0


def test_latency_at_fixed_rate():
    # 50/s over a base of 100 requests per 99 s is a compression of 49.5
    assert latency_at_rate(_even_jobs(0.0), 50.0) == pytest.approx(0.01)
