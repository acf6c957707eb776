"""Tests for the constraint checks."""

from __future__ import annotations

import pytest

from repro.core import constraints
from repro.core.placement import PartialPlacement
from repro.core.topology import ApplicationTopology
from repro.datacenter.model import Level
from repro.datacenter.state import DataCenterState


def make_partial(topo, cloud, state=None):
    return PartialPlacement(
        topo, state or DataCenterState(cloud)
    )


@pytest.fixture
def topo():
    t = ApplicationTopology()
    t.add_vm("a", 4, 8)
    t.add_vm("b", 4, 8)
    t.add_volume("v", 100)
    t.connect("a", "b", 1000)
    t.connect("a", "v", 500)
    t.add_zone("z", Level.RACK, ["a", "b"])
    return t


class TestCapacity:
    def test_vm_capacity(self, topo, small_dc):
        partial = make_partial(topo, small_dc)
        assert constraints.capacity_ok(partial, "a", 0)
        partial.state.place_vm(0, 13, 0.1)
        assert not constraints.capacity_ok(partial, "a", 0)

    def test_volume_capacity(self, topo, small_dc):
        partial = make_partial(topo, small_dc)
        assert constraints.capacity_ok(partial, "v", 0, disk=0)
        partial.state.place_volume(0, 950)
        assert not constraints.capacity_ok(partial, "v", 0, disk=0)

    def test_volume_without_disk_fails(self, topo, small_dc):
        partial = make_partial(topo, small_dc)
        assert not constraints.capacity_ok(partial, "v", 0, disk=None)


class TestDiversity:
    def test_rack_zone_blocks_same_rack(self, topo, small_dc):
        partial = make_partial(topo, small_dc)
        partial.assign("a", 0)
        assert not constraints.diversity_ok(partial, "b", 0)  # same host
        assert not constraints.diversity_ok(partial, "b", 1)  # same rack
        assert constraints.diversity_ok(partial, "b", 4)  # other rack

    def test_unplaced_members_ignored(self, topo, small_dc):
        partial = make_partial(topo, small_dc)
        assert constraints.diversity_ok(partial, "b", 0)

    def test_multi_zone_all_must_hold(self, small_dc):
        t = ApplicationTopology()
        t.add_vm("a", 1, 1)
        t.add_vm("b", 1, 1)
        t.add_vm("c", 1, 1)
        t.add_zone("z1", Level.HOST, ["a", "b"])
        t.add_zone("z2", Level.RACK, ["b", "c"])
        partial = make_partial(t, small_dc)
        partial.assign("a", 0)
        partial.assign("c", 1)
        # b must avoid host 0 (z1) and rack of host 1 (z2)
        assert not constraints.diversity_ok(partial, "b", 0)
        assert not constraints.diversity_ok(partial, "b", 1)
        assert not constraints.diversity_ok(partial, "b", 2)  # rack of c
        assert constraints.diversity_ok(partial, "b", 4)


class TestBandwidth:
    def test_demand_aggregates_shared_links(self, topo, small_dc):
        partial = make_partial(topo, small_dc)
        partial.assign("b", 4)
        partial.assign("v", 8, small_dc.hosts[8].disks[0].index)
        demand = constraints.bandwidth_demand(partial, "a", 0)
        nic0 = small_dc.hosts[0].link_index
        assert demand[nic0] == 1500  # both flows leave through a's NIC

    def test_bandwidth_ok_respects_free(self, topo, small_dc):
        state = DataCenterState(small_dc)
        nic0 = small_dc.hosts[0].link_index
        state.reserve_path((nic0,), 10_000 - 1000)  # only 1000 Mbps left
        partial = make_partial(topo, small_dc, state)
        partial.assign("b", 4)
        partial.assign("v", 8, small_dc.hosts[8].disks[0].index)
        assert not constraints.bandwidth_ok(partial, "a", 0)
        assert constraints.bandwidth_ok(partial, "a", 5)

    def test_no_placed_neighbors_is_free(self, topo, small_dc):
        partial = make_partial(topo, small_dc)
        assert constraints.bandwidth_ok(partial, "a", 0)


class TestFeasible:
    def test_combines_all_checks(self, topo, small_dc):
        partial = make_partial(topo, small_dc)
        partial.assign("a", 0)
        assert constraints.feasible(partial, "b", 4)
        assert not constraints.feasible(partial, "b", 1)  # diversity


class TestObviousInfeasibility:
    def test_oversized_vm(self, small_dc):
        t = ApplicationTopology()
        t.add_vm("huge", 1000, 1)
        partial = make_partial(t, small_dc)
        reason = constraints.topology_obviously_infeasible(t, partial)
        assert reason and "huge" in reason

    def test_oversized_volume(self, small_dc):
        t = ApplicationTopology()
        t.add_vm("a", 1, 1)
        t.add_volume("big", 10_000)
        partial = make_partial(t, small_dc)
        reason = constraints.topology_obviously_infeasible(t, partial)
        assert reason and "big" in reason

    def test_unsatisfiable_zone(self, small_dc):
        t = ApplicationTopology()
        for i in range(5):
            t.add_vm(f"v{i}", 1, 1)
        t.add_zone("wide", Level.RACK, [f"v{i}" for i in range(5)])
        partial = make_partial(t, small_dc)  # only 4 racks
        reason = constraints.topology_obviously_infeasible(t, partial)
        assert reason and "wide" in reason

    def test_feasible_returns_none(self, topo, small_dc):
        partial = make_partial(topo, small_dc)
        assert constraints.topology_obviously_infeasible(topo, partial) is None
