"""Tests for the lower-bound estimator."""

from __future__ import annotations

import pytest

from repro.core.heuristic import EstimatorConfig, LowerBoundEstimator
from repro.core.placement import PartialPlacement
from repro.core.topology import ApplicationTopology
from repro.datacenter.model import Level
from repro.datacenter.state import DataCenterState


def make_partial(topo, cloud):
    return PartialPlacement(topo, DataCenterState(cloud))


@pytest.fixture
def chain_topo():
    t = ApplicationTopology()
    t.add_vm("a", 2, 2)
    t.add_vm("b", 2, 2)
    t.add_vm("c", 2, 2)
    t.connect("a", "b", 100)
    t.connect("b", "c", 50)
    return t


class TestBasics:
    def test_empty_remaining_is_zero(self, chain_topo, small_dc):
        partial = make_partial(chain_topo, small_dc)
        estimator = LowerBoundEstimator(small_dc)
        assert estimator.estimate(partial, []) == (0.0, 0)

    def test_colocatable_chain_estimates_zero(self, chain_topo, small_dc):
        # Everything fits on one (imaginary) host: optimistic bound is 0.
        partial = make_partial(chain_topo, small_dc)
        estimator = LowerBoundEstimator(small_dc)
        ubw, uc = estimator.estimate(partial, ["a", "b", "c"])
        assert ubw == 0.0
        assert uc == 0

    def test_estimate_never_negative(self, chain_topo, small_dc):
        partial = make_partial(chain_topo, small_dc)
        estimator = LowerBoundEstimator(small_dc)
        partial.assign("a", 0)
        ubw, _ = estimator.estimate(partial, ["b", "c"])
        assert ubw >= 0.0


class TestDiversityForcesSpread:
    def test_host_zone_forces_min_hops(self, small_dc):
        t = ApplicationTopology()
        t.add_vm("a", 2, 2)
        t.add_vm("b", 2, 2)
        t.connect("a", "b", 100)
        t.add_zone("z", Level.HOST, ["a", "b"])
        partial = make_partial(t, small_dc)
        estimator = LowerBoundEstimator(small_dc)
        ubw, _ = estimator.estimate(partial, ["a", "b"])
        # must be at least different hosts: 2 hops minimum
        assert ubw == 100 * 2

    def test_rack_zone_forces_more_hops(self, small_dc):
        t = ApplicationTopology()
        t.add_vm("a", 2, 2)
        t.add_vm("b", 2, 2)
        t.connect("a", "b", 100)
        t.add_zone("z", Level.RACK, ["a", "b"])
        partial = make_partial(t, small_dc)
        estimator = LowerBoundEstimator(small_dc)
        ubw, _ = estimator.estimate(partial, ["a", "b"])
        # pod-less DC: rack separation costs 4 hops
        assert ubw == 100 * 4


class TestCapacityForcesSpread:
    def test_oversubscription_creates_imaginary_hosts(self, small_dc):
        t = ApplicationTopology()
        # each host has 16 cores; three 8-core VMs cannot co-locate
        for name in ("a", "b", "c"):
            t.add_vm(name, 8, 8)
        t.connect("a", "b", 100)
        t.connect("b", "c", 100)
        partial = make_partial(t, small_dc)
        estimator = LowerBoundEstimator(small_dc)
        ubw, uc = estimator.estimate(partial, ["a", "b", "c"])
        assert ubw >= 100 * 2  # at least one link crosses hosts
        assert uc == 0  # imaginary hosts never count


class TestAgainstPlaced:
    def test_links_to_placed_nodes_counted(self, chain_topo, small_dc):
        partial = make_partial(chain_topo, small_dc)
        estimator = LowerBoundEstimator(small_dc)
        partial.assign("a", 0)
        # 'b' still fits next to 'a' (real host 0 is a target), so the
        # optimistic estimate may co-locate the rest: bound is 0.
        ubw, _ = estimator.estimate(partial, ["b", "c"])
        assert ubw == 0.0

    def test_full_host_pushes_neighbors_away(self, chain_topo, small_dc):
        partial = make_partial(chain_topo, small_dc)
        estimator = LowerBoundEstimator(small_dc)
        partial.assign("a", 0)
        partial.state.place_vm(0, 14, 29)  # host 0 now full
        ubw, _ = estimator.estimate(partial, ["b", "c"])
        # b cannot join a, so the a<->b link costs at least 2 hops
        assert ubw >= 100 * 2

    def test_placed_pair_links_not_double_counted(self, chain_topo, small_dc):
        partial = make_partial(chain_topo, small_dc)
        estimator = LowerBoundEstimator(small_dc)
        partial.assign("a", 0)
        partial.assign("b", 4)  # the a<->b link is already in partial.ubw
        ubw, _ = estimator.estimate(partial, ["c"])
        # only the b<->c link remains to estimate, optimally co-located
        assert ubw == 0.0


class TestTruncation:
    def test_truncation_only_loosens(self, small_dc):
        t = ApplicationTopology()
        for i in range(8):
            t.add_vm(f"v{i}", 8, 8)
        for i in range(7):
            t.connect(f"v{i}", f"v{i + 1}", 100)
        partial = make_partial(t, small_dc)
        full = LowerBoundEstimator(small_dc)
        truncated = LowerBoundEstimator(small_dc, EstimatorConfig(max_nodes=2))
        remaining = [f"v{i}" for i in range(8)]
        full_bw, _ = full.estimate(partial, remaining)
        trunc_bw, _ = truncated.estimate(partial, remaining)
        assert trunc_bw <= full_bw


class TestPerDiskLedger:
    """Regression: the real-host ledger must track disks individually.

    The old ledger collapsed a host's disks into one max-free scalar, so
    two volumes that each fit on *different* disks of the same host were
    wrongly declared infeasible there and pushed onto imaginary hosts.
    """

    def _two_disk_cloud(self):
        from repro.datacenter.model import (
            Cloud,
            DataCenter,
            Disk,
            Host,
            Rack,
        )

        hosts = [
            Host(
                name=f"h{i}",
                cpu_cores=16,
                mem_gb=32,
                disks=[
                    Disk(name=f"h{i}-d0", capacity_gb=50),
                    Disk(name=f"h{i}-d1", capacity_gb=50),
                ],
            )
            for i in range(4)
        ]
        rack = Rack(name="r0", hosts=hosts)
        return Cloud([DataCenter(name="dc", racks=[rack])])

    def test_two_volumes_fit_on_two_disks_of_one_host(self):
        cloud = self._two_disk_cloud()
        t = ApplicationTopology()
        t.add_vm("vm", 2, 2)
        t.add_volume("va", size_gb=40)
        t.add_volume("vb", size_gb=40)
        t.connect("vm", "va", 100)
        t.connect("vm", "vb", 100)
        partial = make_partial(t, cloud)
        partial.assign("vm", 0)
        estimator = LowerBoundEstimator(cloud)
        ubw, _ = estimator.estimate(partial, ["va", "vb"])
        # 40 + 40 exceeds either single 50 GB disk, but each volume fits
        # on its own disk: both co-locate with the VM, zero extra hops.
        assert ubw == 0.0

    def test_single_disk_sequence_still_bounded(self):
        cloud = self._two_disk_cloud()
        t = ApplicationTopology()
        t.add_vm("vm", 2, 2)
        t.add_volume("va", size_gb=45)
        t.add_volume("vb", size_gb=45)
        t.add_volume("vc", size_gb=45)
        t.connect("vm", "va", 100)
        t.connect("vm", "vb", 100)
        t.connect("vm", "vc", 100)
        partial = make_partial(t, cloud)
        partial.assign("vm", 0)
        estimator = LowerBoundEstimator(cloud)
        ubw, _ = estimator.estimate(partial, ["va", "vb", "vc"])
        # Only two 45 GB volumes fit host 0 (one per disk); the third must
        # leave the host and its link costs at least one host separation.
        assert ubw == 100 * 2


class TestUnrealizableForcedDistance:
    """Regression: zone-forced separations the cloud cannot realize.

    A DATACENTER-level zone in a single-DC cloud is genuinely infeasible.
    The admissible estimator must signal that with ``inf`` rather than a
    finite pessimistic hop count (which under-reports an infeasible future
    and lets BA* keep such states comparable with feasible ones); the
    informative estimator keeps the finite value so EG ranking still works.
    """

    def _zone_forced_topo(self):
        t = ApplicationTopology()
        t.add_vm("a", 2, 2)
        t.add_vm("b", 2, 2)
        t.connect("a", "b", 100)
        t.add_zone("z", Level.DATACENTER, ["a", "b"])
        return t

    def test_admissible_variant_returns_inf(self, small_dc):
        t = self._zone_forced_topo()
        partial = make_partial(t, small_dc)
        estimator = LowerBoundEstimator(
            small_dc, EstimatorConfig(optimistic_colocation=True)
        )
        ubw, _ = estimator.estimate(partial, ["a", "b"])
        assert ubw == float("inf")

    def test_informative_variant_stays_finite(self, small_dc):
        t = self._zone_forced_topo()
        partial = make_partial(t, small_dc)
        estimator = LowerBoundEstimator(small_dc)
        ubw, _ = estimator.estimate(partial, ["a", "b"])
        assert ubw == 100 * 2 * 4  # pessimistic max-hop stand-in, finite
        assert ubw != float("inf")

    def test_realizable_distance_unchanged(self, podded_cloud):
        # Two DCs exist: the same zone is realizable and costs the real
        # minimum for distance 4 in both variants.
        t = self._zone_forced_topo()
        partial = make_partial(t, podded_cloud)
        expected = 100 * podded_cloud.min_hops_for_distance(4)
        for cfg in (
            EstimatorConfig(),
            EstimatorConfig(optimistic_colocation=True),
        ):
            estimator = LowerBoundEstimator(podded_cloud, cfg)
            ubw, _ = estimator.estimate(partial, ["a", "b"])
            assert ubw == expected


class TestAdmissibilityOnSmallInstances:
    """Estimator bound vs. true optimum found by brute force."""

    def _brute_force_best(self, topo, cloud, objective):
        from itertools import product

        from repro.core.placement import PartialPlacement as PP

        names = list(topo.nodes)
        best = float("inf")
        state = DataCenterState(cloud)
        for hosts in product(range(cloud.num_hosts), repeat=len(names)):
            partial = PP(topo, state)
            try:
                for name, host in zip(names, hosts):
                    node = topo.node(name)
                    disk = (
                        cloud.hosts[host].disks[0].index
                        if not node.is_vm
                        else None
                    )
                    partial.assign(name, host, disk)
            except Exception:
                continue
            best = min(best, objective.score(partial.ubw, partial.uc))
        return best

    def test_root_estimate_below_true_optimum(self):
        from repro.core.objective import Objective
        from repro.datacenter.builder import build_datacenter

        cloud = build_datacenter(num_racks=2, hosts_per_rack=2)
        t = ApplicationTopology()
        t.add_vm("a", 10, 10)
        t.add_vm("b", 10, 10)
        t.add_vm("c", 2, 2)
        t.connect("a", "b", 100)
        t.connect("b", "c", 40)
        t.add_zone("z", Level.HOST, ["a", "b"])
        objective = Objective.for_topology(t, cloud)
        partial = make_partial(t, cloud)
        estimator = LowerBoundEstimator(cloud)
        est_bw, est_c = estimator.estimate(partial, list(t.nodes))
        root_value = objective.score(est_bw, est_c)
        optimum = self._brute_force_best(t, cloud, objective)
        assert root_value <= optimum + 1e-9
