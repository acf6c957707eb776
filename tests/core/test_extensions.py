"""Tests for the Section-VI extensions: latency-bounded pipes and
guaranteed / best-effort CPU policies."""

from __future__ import annotations

import pytest

from repro.core import constraints
from repro.core.candidates import candidate_targets
from repro.core.greedy import EG
from repro.core.placement import PartialPlacement
from repro.core.scheduler import Ostro
from repro.core.topology import ApplicationTopology
from repro.datacenter.state import DataCenterState
from repro.errors import PlacementError, TopologyError
from repro.heat.template import template_from_topology, topology_from_template


def make_partial(topo, cloud, state=None):
    return PartialPlacement(
        topo, state or DataCenterState(cloud)
    )


class TestLatencyBoundedPipes:
    def _pair(self, max_hops):
        t = ApplicationTopology()
        t.add_vm("a", 2, 2)
        t.add_vm("b", 2, 2)
        t.connect("a", "b", 100, max_hops=max_hops)
        return t

    def test_zero_hops_forces_colocation(self, small_dc):
        topo = self._pair(max_hops=0)
        partial = make_partial(topo, small_dc)
        partial.assign("a", 0)
        targets = candidate_targets(partial, "b", dedup=False)
        assert [t.host for t in targets] == [0]

    def test_two_hops_allows_same_rack_only(self, small_dc):
        topo = self._pair(max_hops=2)
        partial = make_partial(topo, small_dc)
        partial.assign("a", 0)
        targets = candidate_targets(partial, "b", dedup=False)
        # rack of host 0 holds hosts 0..3 in the 4x4 small_dc
        assert {t.host for t in targets} == {0, 1, 2, 3}

    def test_latency_ok_helper(self, small_dc):
        topo = self._pair(max_hops=2)
        partial = make_partial(topo, small_dc)
        partial.assign("a", 0)
        assert constraints.latency_ok(partial, "b", 1)
        assert not constraints.latency_ok(partial, "b", 4)

    def test_unbounded_pipe_unconstrained(self, small_dc):
        topo = self._pair(max_hops=None)
        partial = make_partial(topo, small_dc)
        partial.assign("a", 0)
        targets = candidate_targets(partial, "b", dedup=False)
        assert len(targets) == small_dc.num_hosts

    def test_eg_honors_latency(self, small_dc):
        topo = self._pair(max_hops=2)
        # make co-location impossible: a fills most of every host's CPU
        topo.remove_node("a")
        topo.add_vm("a", 14, 4)
        topo.connect("a", "b", 100, max_hops=2)
        result = EG().place(topo, small_dc)
        a_host = result.placement.host_of("a")
        b_host = result.placement.host_of("b")
        assert small_dc.hop_count(a_host, b_host) <= 2

    def test_unsatisfiable_latency_raises(self, small_dc):
        t = ApplicationTopology()
        t.add_vm("a", 14, 4)
        t.add_vm("b", 14, 4)  # cannot co-locate (28 > 16 cores)
        t.connect("a", "b", 100, max_hops=0)  # but must
        with pytest.raises(PlacementError):
            EG().place(t, small_dc)

    def test_negative_max_hops_rejected(self):
        t = ApplicationTopology()
        t.add_vm("a", 1, 1)
        t.add_vm("b", 1, 1)
        with pytest.raises(TopologyError):
            t.connect("a", "b", 10, max_hops=-1)

    def test_template_roundtrip_preserves_max_hops(self, small_dc):
        topo = self._pair(max_hops=2)
        back = topology_from_template(template_from_topology(topo))
        assert back.link_between("a", "b").max_hops == 2


class TestCpuPolicies:
    def test_best_effort_reserves_discounted_cpu(self, small_dc):
        t = ApplicationTopology()
        t.add_vm("burst", 8, 4, cpu_policy="best_effort")
        state = DataCenterState(small_dc, best_effort_cpu_factor=0.5)
        partial = PartialPlacement(t, state)
        partial.assign("burst", 0)
        assert partial.state.free_cpu[0] == 16 - 4  # 8 * 0.5

    def test_guaranteed_reserves_full_cpu(self, small_dc):
        t = ApplicationTopology()
        t.add_vm("strict", 8, 4)
        partial = make_partial(t, small_dc)
        partial.assign("strict", 0)
        assert partial.state.free_cpu[0] == 8

    def test_best_effort_packs_denser(self, small_dc):
        """Three 8-vCPU best-effort VMs fit one 16-core host at factor 0.5;
        guaranteed ones need two hosts."""
        def build(policy):
            t = ApplicationTopology(f"pack-{policy}")
            for i in range(3):
                t.add_vm(f"vm{i}", 8, 2, cpu_policy=policy)
            t.connect("vm0", "vm1", 10)
            t.connect("vm1", "vm2", 10)
            return t

        best_effort = EG().place(build("best_effort"), small_dc)
        guaranteed = EG().place(build("guaranteed"), small_dc)
        assert best_effort.placement.hosts_used == 1
        assert guaranteed.placement.hosts_used == 2

    def test_unknown_policy_rejected(self):
        t = ApplicationTopology()
        with pytest.raises(TopologyError, match="cpu_policy"):
            t.add_vm("x", 1, 1, cpu_policy="turbo")

    def test_scheduler_commit_and_remove_roundtrip(self, small_dc):
        ostro = Ostro(small_dc)
        t = ApplicationTopology("be-app")
        t.add_vm("burst", 8, 4, cpu_policy="best_effort")
        t.add_vm("strict", 4, 4)
        snapshot = ostro.state.snapshot()
        ostro.place(t, algorithm="eg")
        ostro.remove("be-app")
        assert ostro.state.snapshot() == snapshot

    def test_template_roundtrip_preserves_policy(self, small_dc):
        t = ApplicationTopology()
        t.add_vm("burst", 8, 4, cpu_policy="best_effort")
        t.add_vm("strict", 4, 4)
        back = topology_from_template(template_from_topology(t))
        assert back.node("burst").cpu_policy == "best_effort"
        assert back.node("strict").cpu_policy == "guaranteed"


class TestLinkUniqueness:
    def test_duplicate_link_rejected(self):
        t = ApplicationTopology()
        t.add_vm("a", 1, 1)
        t.add_vm("b", 1, 1)
        t.connect("a", "b", 10)
        with pytest.raises(TopologyError, match="duplicate link"):
            t.connect("b", "a", 20)

    def test_link_between_lookup(self):
        t = ApplicationTopology()
        t.add_vm("a", 1, 1)
        t.add_vm("b", 1, 1)
        t.add_vm("c", 1, 1)
        link = t.connect("a", "b", 10)
        assert t.link_between("a", "b") is link
        assert t.link_between("b", "a") is link
        assert t.link_between("a", "c") is None
