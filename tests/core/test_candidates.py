"""Tests for candidate generation and equivalence-class dedup."""

from __future__ import annotations

import pytest

from repro.core.candidates import candidate_targets
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
    t.add_vm("a", 2, 2)
    t.add_vm("b", 2, 2)
    t.add_volume("v", 50)
    t.connect("a", "b", 100)
    t.connect("b", "v", 50)
    t.add_zone("z", Level.HOST, ["a", "b"])
    return t


class TestFeasibleEnumeration:
    def test_all_hosts_feasible_without_dedup(self, topo, small_dc):
        partial = make_partial(topo, small_dc)
        targets = candidate_targets(partial, "a", dedup=False)
        assert len(targets) == small_dc.num_hosts
        assert all(t.disk is None and t.multiplicity == 1 for t in targets)

    def test_volume_targets_carry_disks(self, topo, small_dc):
        partial = make_partial(topo, small_dc)
        targets = candidate_targets(partial, "v", dedup=False)
        assert len(targets) == len(small_dc.disks)
        assert all(t.disk is not None for t in targets)

    def test_infeasible_hosts_excluded(self, topo, small_dc):
        state = DataCenterState(small_dc)
        state.place_vm(0, 15, 31)  # nearly full
        partial = make_partial(topo, small_dc, state)
        targets = candidate_targets(partial, "a", dedup=False)
        assert all(t.host != 0 for t in targets)

    def test_diversity_filters_candidates(self, topo, small_dc):
        partial = make_partial(topo, small_dc)
        partial.assign("a", 0)
        targets = candidate_targets(partial, "b", dedup=False)
        assert all(t.host != 0 for t in targets)  # host-level zone

    def test_bandwidth_filters_candidates(self, topo, small_dc):
        state = DataCenterState(small_dc)
        # Starve host 1's NIC: 'b' can't reach 'a' from there.
        nic1 = small_dc.hosts[1].link_index
        state.reserve_path((nic1,), 10_000 - 50)
        partial = make_partial(topo, small_dc, state)
        partial.assign("a", 0)
        targets = candidate_targets(partial, "b", dedup=False)
        assert all(t.host != 1 for t in targets)

    def test_empty_when_nothing_fits(self, small_dc):
        t = ApplicationTopology()
        t.add_vm("x", 16, 32)
        state = DataCenterState(small_dc)
        for h in range(small_dc.num_hosts):
            state.place_vm(h, 1, 1)
        partial = make_partial(t, small_dc, state)
        assert candidate_targets(partial, "x") == []


class TestDedup:
    def test_identical_hosts_collapse(self, topo, small_dc):
        partial = make_partial(topo, small_dc)
        targets = candidate_targets(partial, "a", dedup=True)
        # pristine pod-less DC: every host is interchangeable
        assert len(targets) == 1
        assert targets[0].multiplicity == small_dc.num_hosts
        assert targets[0].host == 0  # lowest-index representative

    def test_placed_rack_breaks_symmetry(self, topo, small_dc):
        partial = make_partial(topo, small_dc)
        partial.assign("a", 0)
        targets = candidate_targets(partial, "b", dedup=True)
        # classes: same rack as 'a' (3 hosts left) vs other racks (12)
        assert len(targets) == 2
        sizes = sorted(t.multiplicity for t in targets)
        assert sizes == [3, 12]

    def test_resource_difference_breaks_symmetry(self, topo, small_dc):
        state = DataCenterState(small_dc)
        state.place_vm(5, 8, 8)
        partial = make_partial(topo, small_dc, state)
        targets = candidate_targets(partial, "a", dedup=True)
        hosts = {t.host for t in targets}
        assert 5 in hosts  # the loaded host forms its own class

    def test_multiplicities_cover_all_feasible(self, topo, small_dc):
        partial = make_partial(topo, small_dc)
        partial.assign("a", 0)
        with_dedup = candidate_targets(partial, "b", dedup=True)
        without = candidate_targets(partial, "b", dedup=False)
        assert sum(t.multiplicity for t in with_dedup) == len(without)

    def test_limit_caps_results(self, topo, small_dc):
        partial = make_partial(topo, small_dc)
        targets = candidate_targets(partial, "a", dedup=False, limit=5)
        assert len(targets) == 5
