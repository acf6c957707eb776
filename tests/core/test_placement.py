"""Tests for PartialPlacement bookkeeping."""

from __future__ import annotations

import pytest

from repro.core.placement import PartialPlacement
from repro.core.topology import ApplicationTopology
from repro.datacenter.state import DataCenterState
from repro.errors import PlacementError


@pytest.fixture
def topo():
    t = ApplicationTopology("p")
    t.add_vm("a", 2, 2)
    t.add_vm("b", 4, 4)
    t.add_volume("v", 50)
    t.connect("a", "b", 100)
    t.connect("b", "v", 200)
    return t


@pytest.fixture
def partial(topo, small_dc):
    state = DataCenterState(small_dc)
    return PartialPlacement(topo, state)


class TestAssign:
    def test_vm_assignment_reserves_resources(self, partial):
        partial.assign("a", 0)
        assert partial.state.free_cpu[0] == 14
        assert partial.is_placed("a")
        assert partial.host_of("a") == 0
        assert partial.uc == 1

    def test_bandwidth_reserved_to_placed_neighbors(self, partial, small_dc):
        partial.assign("a", 0)
        partial.assign("b", 4)  # different rack: 4-hop path
        assert partial.ubw == 100 * 4
        nic0 = small_dc.hosts[0].link_index
        assert partial.state.free_bw[nic0] == 10_000 - 100

    def test_same_host_no_bandwidth(self, partial):
        partial.assign("a", 0)
        partial.assign("b", 0)
        assert partial.ubw == 0.0
        assert partial.uc == 1

    def test_volume_assignment(self, partial, small_dc):
        disk = small_dc.hosts[2].disks[0].index
        partial.assign("v", 2, disk)
        assert partial.state.free_disk[disk] == 950
        assert partial.uc == 1

    def test_volume_without_disk_rejected(self, partial):
        with pytest.raises(PlacementError):
            partial.assign("v", 2)

    def test_volume_disk_host_mismatch_rejected(self, partial, small_dc):
        disk_on_host3 = small_dc.hosts[3].disks[0].index
        with pytest.raises(PlacementError, match="does not belong"):
            partial.assign("v", 2, disk_on_host3)

    def test_double_assign_rejected(self, partial):
        partial.assign("a", 0)
        with pytest.raises(PlacementError, match="already placed"):
            partial.assign("a", 1)

    def test_capacity_failure_is_atomic(self, partial):
        partial.assign("a", 0)
        partial.state.place_vm(0, 14, 0.5)  # leave no CPU for 'b'
        snapshot = partial.state.snapshot()
        with pytest.raises(PlacementError):
            partial.assign("b", 0)
        assert partial.state.snapshot() == snapshot
        assert partial.is_placed("a")
        assert not partial.is_placed("b")

    def test_bandwidth_failure_rolls_back_everything(self, topo, small_dc):
        state = DataCenterState(small_dc)
        # starve host 4's NIC so the a<->b flow cannot be reserved
        nic4 = small_dc.hosts[4].link_index
        state.reserve_path((nic4,), small_dc.link_capacity_mbps[nic4] - 50)
        partial = PartialPlacement(topo, state)
        partial.assign("a", 0)
        before = partial.state.snapshot()
        with pytest.raises(PlacementError):
            partial.assign("b", 4)
        assert partial.state.snapshot() == before
        assert not partial.is_placed("b")


class TestUnassign:
    def test_roundtrip_restores_state(self, partial):
        before = partial.state.snapshot()
        partial.assign("a", 0)
        partial.assign("b", 4)
        partial.assign("v", 4, partial.state.cloud.hosts[4].disks[0].index)
        partial.unassign("v")
        partial.unassign("b")
        partial.unassign("a")
        assert partial.state.snapshot() == before
        assert partial.ubw == 0.0
        assert partial.uc == 0

    def test_unassign_unplaced_rejected(self, partial):
        with pytest.raises(PlacementError):
            partial.unassign("a")

    def test_activation_tracking_through_unassign(self, partial):
        partial.assign("a", 0)
        partial.assign("b", 0)
        partial.unassign("b")  # host 0 still active because of 'a'
        assert partial.uc == 1
        partial.unassign("a")
        assert partial.uc == 0


class TestAccounting:
    def test_preactive_host_not_counted(self, topo, small_dc):
        state = DataCenterState(small_dc)
        state.consume_background(0, vcpus=1, mem_gb=1)
        partial = PartialPlacement(topo, state)
        partial.assign("a", 0)
        assert partial.uc == 0  # host 0 was already active

    def test_placed_hosts(self, partial):
        partial.assign("a", 0)
        partial.assign("b", 4)
        assert partial.placed_hosts() == {0, 4}

    def test_placement_key_changes_with_assignment(self, partial):
        empty = partial.placement_key()
        partial.assign("a", 0)
        assert partial.placement_key() != empty


class TestCloneAndFreeze:
    def test_clone_is_independent(self, partial):
        partial.assign("a", 0)
        clone = partial.clone()
        clone.assign("b", 1)
        assert not partial.is_placed("b")
        assert partial.state.free_cpu[1] == 16

    def test_freeze_summary(self, partial, small_dc):
        partial.assign("a", 0)
        partial.assign("b", 4)
        partial.assign("v", 4, small_dc.hosts[4].disks[0].index)
        placement = partial.freeze()
        assert placement.app_name == "p"
        assert placement.host_of("a") == 0
        assert placement.disk_of("v") == small_dc.hosts[4].disks[0].index
        assert placement.reserved_bw_mbps == 100 * 4  # b<->v co-located
        assert placement.new_active_hosts == 2
        assert placement.hosts_used == 2
