"""Replays of one pass merge call by call."""

from harness import Job
from workloads import Pass, fastest


def test_fastest_takes_each_call_minimum_and_keeps_the_rest():
    a = Pass(wall_s=2.0, fingerprint="f", decision_ms=[1.0, 5.0], decision_calls=[0, 1],
             lifecycle_ms=[3.0], admitted=2, jobs=[Job(0.0, 0.4, (0.0,)), Job(9.0, 0.1, (8.0,))])
    b = Pass(wall_s=1.5, fingerprint="f", decision_ms=[2.0, 4.0], decision_calls=[0, 1],
             lifecycle_ms=[2.5], admitted=2, jobs=[Job(0.0, 0.3, (0.0,)), Job(9.0, 0.2, (8.0,))])
    best = fastest([a, b])
    assert best.wall_s == 1.5
    assert best.decision_ms == [1.0, 4.0]
    assert best.lifecycle_ms == [2.5]
    assert [j.service_s for j in best.jobs] == [0.3, 0.1]
    assert [j.submits_s for j in best.jobs] == [(0.0,), (8.0,)]
    assert (best.fingerprint, best.decision_calls, best.admitted) == ("f", [0, 1], 2)
    assert a.decision_ms == [1.0, 5.0]  # the replays themselves are untouched
