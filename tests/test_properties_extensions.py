"""Property-based tests for the Section-VI extensions.

Latency-bounded pipes and CPU policies must uphold their contracts under
every algorithm and random topology: hop bounds are never exceeded by a
returned placement, and best-effort discounting is exactly linear and
reversible.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.greedy import EG, EGBW, EGC
from repro.core.placement import PartialPlacement
from repro.core.topology import ApplicationTopology
from repro.datacenter.builder import build_datacenter
from repro.datacenter.state import DataCenterState
from repro.errors import PlacementError

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def latency_topologies(draw):
    """Chains with random per-link hop bounds."""
    topo = ApplicationTopology("lat")
    n = draw(st.integers(min_value=2, max_value=5))
    for i in range(n):
        topo.add_vm(f"vm{i}", draw(st.sampled_from([1, 2, 4])), 2)
    for i in range(n - 1):
        bound = draw(st.sampled_from([None, 0, 2, 4]))
        topo.connect(f"vm{i}", f"vm{i + 1}", 50, max_hops=bound)
    return topo


def small_cloud():
    return build_datacenter(num_racks=3, hosts_per_rack=3)


class TestLatencyProperties:
    @SETTINGS
    @given(topo=latency_topologies(), algo_i=st.integers(0, 2))
    def test_hop_bounds_always_respected(self, topo, algo_i):
        cloud = small_cloud()
        algorithm = [EG(), EGC(), EGBW()][algo_i]
        try:
            result = algorithm.place(topo, cloud)
        except PlacementError:
            return
        for link in topo.links:
            if link.max_hops is None:
                continue
            hops = cloud.hop_count(
                result.placement.host_of(link.a),
                result.placement.host_of(link.b),
            )
            assert hops <= link.max_hops, link

    @SETTINGS
    @given(topo=latency_topologies())
    def test_zero_bound_means_colocation(self, topo):
        cloud = small_cloud()
        try:
            result = EG().place(topo, cloud)
        except PlacementError:
            return
        for link in topo.links:
            if link.max_hops == 0:
                assert result.placement.host_of(
                    link.a
                ) == result.placement.host_of(link.b)


class TestCpuPolicyProperties:
    @SETTINGS
    @given(
        vcpus=st.floats(min_value=0.5, max_value=16),
        factor=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_discount_is_linear(self, vcpus, factor):
        topo = ApplicationTopology()
        vm = topo.add_vm("x", vcpus, 1, cpu_policy="best_effort")
        assert vm.effective_vcpus(factor) == pytest.approx(vcpus * factor)
        strict = ApplicationTopology().add_vm("y", vcpus, 1)
        assert strict.effective_vcpus(factor) == vcpus

    @SETTINGS
    @given(
        vcpus=st.sampled_from([1, 2, 4, 8]),
        factor=st.sampled_from([0.25, 0.5, 0.75]),
        policy=st.sampled_from(["guaranteed", "best_effort"]),
    )
    def test_assign_unassign_roundtrip_with_policy(
        self, vcpus, factor, policy
    ):
        cloud = small_cloud()
        topo = ApplicationTopology()
        topo.add_vm("x", vcpus, 1, cpu_policy=policy)
        state = DataCenterState(cloud, best_effort_cpu_factor=factor)
        partial = PartialPlacement(topo, state)
        before = partial.state.snapshot()
        partial.assign("x", 0)
        expected = vcpus * factor if policy == "best_effort" else vcpus
        assert partial.state.free_cpu[0] == pytest.approx(
            cloud.hosts[0].cpu_cores - expected
        )
        partial.unassign("x")
        assert partial.state.snapshot() == before
