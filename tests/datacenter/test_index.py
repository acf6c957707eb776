"""Property tests: the cloud's topology index against a naive reference.

The reference below reads only the object graph (``host.rack.pod`` /
``rack.datacenter`` plus each element's ``link_index``) and climbs it
switch by switch. Every index-backed answer of :class:`Cloud` -- and of
its numpy view :class:`~repro.core.kernel.CloudArrays` -- must equal it
for every host pair, on random hierarchies that mix pods with pod-less
racks across one to three data centers, and on the testbed.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.datacenter.builder import build_testbed
from repro.datacenter.model import Cloud, DataCenter, Host, Level, Pod, Rack
from repro.errors import DataCenterError

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ----------------------------------------------------------------------
# naive reference
# ----------------------------------------------------------------------


def ref_distance(a: Host, b: Host) -> int:
    if a is b:
        return 0
    if a.rack.datacenter is not b.rack.datacenter:
        return 4
    # a pod-less rack is its own pod
    if (a.rack.pod or a.rack) is not (b.rack.pod or b.rack):
        return 3
    return 2 if a.rack is not b.rack else 1


def ref_climb(host: Host):
    """``(link_index, switch reached)`` from the host NIC to the top."""
    rack = host.rack
    dc = rack.datacenter
    climb = [(host.link_index, rack)]
    if rack.pod is not None:
        climb += [(rack.link_index, rack.pod), (rack.pod.link_index, dc)]
    else:
        climb.append((rack.link_index, dc))
    if dc.link_index >= 0:
        climb.append((dc.link_index, "cloud"))
    return climb


def ref_covers(switch) -> int:
    """Highest separation distance two hosts under ``switch`` can have."""
    if isinstance(switch, Rack):
        return 1
    if isinstance(switch, Pod):
        return 2
    if isinstance(switch, DataCenter):
        return 3
    return 4


def ref_steps(host: Host, dist: int) -> int:
    """Links up to the lowest switch covering ``dist`` (0: none does)."""
    if dist == 0:
        return 0
    for steps, (_, switch) in enumerate(ref_climb(host), 1):
        if ref_covers(switch) >= dist:
            return steps
    return 0


def ref_path(a: Host, b: Host):
    """The lower-indexed host's links up to the lowest common switch,
    then the other host's."""
    if a is b:
        return ()
    if a.index > b.index:
        a, b = b, a
    climb_a, climb_b = ref_climb(a), ref_climb(b)
    for i, (_, switch) in enumerate(climb_a):
        for j, (_, other) in enumerate(climb_b):
            if switch is other:
                return tuple(link for link, _ in climb_a[: i + 1]) + tuple(
                    link for link, _ in climb_b[: j + 1]
                )
    raise AssertionError("no common switch")


def ref_min_hops(cloud: Cloud, dist: int):
    if dist == 0:
        return 0
    steps = [ref_steps(h, dist) for h in cloud.hosts]
    steps = [s for s in steps if s]
    return 2 * min(steps) if steps else None


# ----------------------------------------------------------------------
# generated hierarchies
# ----------------------------------------------------------------------

_rack_sizes = st.integers(min_value=0, max_value=2)
_pod = st.lists(_rack_sizes, min_size=0, max_size=2).map(lambda r: ("pod", r))
_podless_rack = _rack_sizes.map(lambda n: ("rack", n))
_datacenter = st.lists(st.one_of(_pod, _podless_rack), min_size=1, max_size=3)
hierarchies = st.lists(_datacenter, min_size=1, max_size=3)


def build(spec) -> Cloud:
    names = itertools.count()

    def rack(num_hosts: int) -> Rack:
        hosts = [Host(f"h{next(names)}", 4, 8) for _ in range(num_hosts)]
        return Rack(f"r{next(names)}", hosts)

    datacenters = []
    for dc_spec in spec:
        dc = DataCenter(f"dc{next(names)}")
        for kind, sizes in dc_spec:
            if kind == "pod":
                dc.pods.append(Pod(f"p{next(names)}", [rack(n) for n in sizes]))
            else:
                dc.racks.append(rack(sizes))
        datacenters.append(dc)
    return Cloud(datacenters)


def _cloud(spec) -> Cloud:
    num_hosts = sum(
        sum(sizes) if kind == "pod" else sizes
        for dc_spec in spec
        for kind, sizes in dc_spec
    )
    assume(num_hosts > 0)
    return build(spec)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


def check_cloud(cloud: Cloud) -> None:
    hosts = cloud.hosts
    for a in hosts:
        row = cloud.distance_row(a.index)
        for dist in range(5):
            assert cloud.steps_at_dist[a.index][dist] == ref_steps(a, dist)
        for b in hosts:
            dist = ref_distance(a, b)
            assert cloud.distance(a.index, b.index) == dist
            assert row[b.index] == dist
            for level in Level:
                assert cloud.separated_at(a.index, b.index, level) == (
                    dist > level
                )
            path = ref_path(a, b)
            assert cloud.path(a.index, b.index) == path
            assert cloud.hop_count(a.index, b.index) == len(path)
    for dist in range(6):
        expected = ref_min_hops(cloud, dist) if dist < 5 else None
        if expected is None:
            with pytest.raises(DataCenterError):
                cloud.min_hops_for_distance(dist)
        else:
            assert cloud.min_hops_for_distance(dist) == expected
    assert cloud.max_hop_count() == 2 * max(len(ref_climb(h)) for h in hosts)


def check_arrays(cloud: Cloud) -> None:
    np = pytest.importorskip("numpy")
    from repro.core.kernel import CloudArrays

    arrays = CloudArrays(cloud)
    hosts = cloud.hosts
    num = len(hosts)
    dist = [[ref_distance(a, b) for b in hosts] for a in hosts]
    hops = [[len(ref_path(a, b)) for b in hosts] for a in hosts]
    assert arrays.distance_matrix.tolist() == dist
    for h in range(num):
        assert arrays.distance_row(h).tolist() == [dist[o][h] for o in range(num)]
        assert arrays.hops_row(h).tolist() == [hops[o][h] for o in range(num)]
    assert arrays.steps_at_dist.tolist() == [
        [ref_steps(h, d) for d in range(5)] for h in hosts
    ]
    pairs = list(itertools.product(range(num), repeat=2))
    hosts_a = np.array([a for a, _ in pairs], dtype=np.int64)
    hosts_b = np.array([b for _, b in pairs], dtype=np.int64)
    assert arrays.pair_hops(hosts_a, hosts_b).tolist() == [
        hops[a][b] for a, b in pairs
    ]


@SETTINGS
@given(hierarchies)
def test_index_matches_reference(spec):
    check_cloud(_cloud(spec))


@SETTINGS
@given(hierarchies)
def test_arrays_match_reference(spec):
    check_arrays(_cloud(spec))


def test_testbed_matches_reference():
    check_cloud(build_testbed())


def test_testbed_arrays_match_reference():
    check_arrays(build_testbed())
