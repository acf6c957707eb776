"""Property-based tests (hypothesis) over the core invariants.

These tests generate random topologies, loads, and operation sequences and
check the invariants the whole system rests on: placements always satisfy
every constraint, reservations round-trip exactly, normalization stays in
bounds, the exact optimizations (candidate dedup, symmetry reduction)
never change results, and BA* never does worse than EG.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.astar import BAStar
from repro.core.greedy import EG, GreedyConfig
from repro.core.objective import Objective
from repro.core.placement import PartialPlacement
from repro.core.topology import ApplicationTopology
from repro.datacenter.builder import build_cloud, build_datacenter
from repro.datacenter.loadgen import apply_random_load
from repro.datacenter.model import Level
from repro.datacenter.state import DataCenterState
from repro.errors import PlacementError
from repro.heat.template import template_from_topology, topology_from_template
from tests.core.test_greedy import verify_placement_feasible

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def snapshots_close(a, b, tol=1e-9) -> bool:
    """Element-wise approximate snapshot equality (float ulp drift)."""
    return all(
        len(va) == len(vb) and all(abs(x - y) <= tol for x, y in zip(va, vb))
        for va, vb in zip(a, b)
    )

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def topologies(draw, max_vms: int = 6, max_volumes: int = 3):
    """Random small application topologies."""
    topo = ApplicationTopology("random")
    n_vms = draw(st.integers(min_value=1, max_value=max_vms))
    n_vols = draw(st.integers(min_value=0, max_value=max_volumes))
    for i in range(n_vms):
        topo.add_vm(
            f"vm{i}",
            vcpus=draw(st.sampled_from([1, 2, 4])),
            mem_gb=draw(st.sampled_from([1, 2, 4, 8])),
        )
    for i in range(n_vols):
        topo.add_volume(f"vol{i}", size_gb=draw(st.sampled_from([10, 50, 120])))
    vm_names = [f"vm{i}" for i in range(n_vms)]
    vol_names = [f"vol{i}" for i in range(n_vols)]
    # links: VM-VM pairs and VM-volume pairs
    for i in range(n_vms):
        for j in range(i + 1, n_vms):
            if draw(st.booleans()):
                topo.connect(
                    vm_names[i],
                    vm_names[j],
                    draw(st.sampled_from([10, 50, 100])),
                )
    for k, vol in enumerate(vol_names):
        owner = vm_names[k % n_vms]
        topo.connect(owner, vol, draw(st.sampled_from([10, 100, 200])))
    # zones over VMs
    if n_vms >= 2 and draw(st.booleans()):
        members = draw(
            st.lists(
                st.sampled_from(vm_names), min_size=2, max_size=n_vms, unique=True
            )
        )
        level = draw(st.sampled_from([Level.HOST, Level.RACK]))
        topo.add_zone("z0", level, members)
    return topo


def small_cloud():
    return build_datacenter(num_racks=3, hosts_per_rack=3)


# ---------------------------------------------------------------------------
# placement feasibility
# ---------------------------------------------------------------------------


class TestPlacementsAlwaysFeasible:
    @SETTINGS
    @given(topo=topologies(), seed=st.integers(0, 50), algo_i=st.integers(0, 2))
    def test_any_algorithm_output_is_feasible(self, topo, seed, algo_i):
        from repro.core.greedy import EGBW, EGC

        cloud = small_cloud()
        state = DataCenterState(cloud)
        apply_random_load(state, fraction_hosts=0.4, seed=seed)
        algorithm = [EG(), EGC(), EGBW()][algo_i]
        try:
            result = algorithm.place(topo, cloud, state)
        except PlacementError:
            return  # infeasible inputs are allowed to fail loudly
        verify_placement_feasible(topo, cloud, state, result.placement)

    @SETTINGS
    @given(topo=topologies(max_vms=4, max_volumes=2), seed=st.integers(0, 20))
    def test_bastar_output_is_feasible(self, topo, seed):
        cloud = small_cloud()
        state = DataCenterState(cloud)
        apply_random_load(state, fraction_hosts=0.3, seed=seed)
        try:
            result = BAStar(max_expansions=300).place(topo, cloud, state)
        except PlacementError:
            return
        verify_placement_feasible(topo, cloud, state, result.placement)


class TestSearchDominance:
    @SETTINGS
    @given(topo=topologies(max_vms=4, max_volumes=1), seed=st.integers(0, 20))
    def test_bastar_never_worse_than_eg(self, topo, seed):
        cloud = small_cloud()
        state = DataCenterState(cloud)
        apply_random_load(state, fraction_hosts=0.3, seed=seed)
        objective = Objective.for_topology(topo, cloud)
        try:
            eg_value = EG().place(topo, cloud, state, objective).objective_value
        except PlacementError:
            return
        ba_value = (
            BAStar(max_expansions=300)
            .place(topo, cloud, state, objective)
            .objective_value
        )
        assert ba_value <= eg_value + 1e-9

    @SETTINGS
    @given(topo=topologies(max_vms=5, max_volumes=2), seed=st.integers(0, 20))
    def test_dedup_never_changes_eg_result(self, topo, seed):
        cloud = small_cloud()
        state = DataCenterState(cloud)
        apply_random_load(state, fraction_hosts=0.4, seed=seed)
        results = []
        for dedup in (True, False):
            try:
                results.append(
                    EG(GreedyConfig(dedup=dedup)).place(topo, cloud, state)
                )
            except PlacementError:
                results.append(None)
        if results[0] is None or results[1] is None:
            assert results[0] is None and results[1] is None
            return
        assert results[0].objective_value == pytest.approx(
            results[1].objective_value, abs=1e-9
        )


# ---------------------------------------------------------------------------
# state round-trips
# ---------------------------------------------------------------------------


class TestStateRoundTrips:
    @SETTINGS
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(0, 8),  # host
                st.floats(0.5, 4),  # cpu
                st.floats(0.5, 4),  # mem
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_vm_reservations_roundtrip(self, ops):
        cloud = small_cloud()
        state = DataCenterState(cloud)
        before = state.snapshot()
        applied = []
        for host, cpu, mem in ops:
            if state.vm_fits(host, cpu, mem):
                state.place_vm(host, cpu, mem)
                applied.append((host, cpu, mem))
        for host, cpu, mem in reversed(applied):
            state.unplace_vm(host, cpu, mem)
        assert snapshots_close(state.snapshot(), before)

    @SETTINGS
    @given(
        topo=topologies(max_vms=4, max_volumes=2),
        order_seed=st.integers(0, 100),
    )
    def test_partial_placement_roundtrip(self, topo, order_seed):
        import random

        cloud = small_cloud()
        state = DataCenterState(cloud)
        partial = PartialPlacement(topo, state)
        before = partial.state.snapshot()
        rng = random.Random(order_seed)
        placed = []
        for name in topo.nodes:
            host = rng.randrange(cloud.num_hosts)
            node = topo.node(name)
            disk = (
                cloud.hosts[host].disks[0].index if not node.is_vm else None
            )
            try:
                partial.assign(name, host, disk)
                placed.append(name)
            except PlacementError:
                pass
        rng.shuffle(placed)
        for name in placed:
            partial.unassign(name)
        assert snapshots_close(partial.state.snapshot(), before)
        assert partial.ubw == pytest.approx(0.0)
        assert partial.uc == 0


# ---------------------------------------------------------------------------
# objective and structure
# ---------------------------------------------------------------------------


class TestObjectiveProperties:
    @SETTINGS
    @given(
        topo=topologies(),
        bw_frac=st.floats(0, 1),
        uc_frac=st.floats(0, 1),
    )
    def test_score_in_unit_interval_within_worst_case(
        self, topo, bw_frac, uc_frac
    ):
        cloud = small_cloud()
        objective = Objective.for_topology(topo, cloud)
        score = objective.score(
            bw_frac * objective.ubw_hat, uc_frac * objective.uc_hat
        )
        assert -1e-9 <= score <= 1.0 + 1e-9

    @SETTINGS
    @given(topo=topologies(), seed=st.integers(0, 20))
    def test_placement_usage_below_worst_case(self, topo, seed):
        cloud = small_cloud()
        state = DataCenterState(cloud)
        objective = Objective.for_topology(topo, cloud)
        try:
            result = EG().place(topo, cloud, state, objective)
        except PlacementError:
            return
        assert result.reserved_bw_mbps <= objective.ubw_hat + 1e-9
        assert result.new_active_hosts <= objective.uc_hat + 1e-9


class TestCloudStructure:
    @SETTINGS
    @given(
        a=st.integers(0, 15),
        b=st.integers(0, 15),
    )
    def test_path_and_distance_consistency(self, a, b):
        cloud = build_cloud(
            num_datacenters=2, pods_per_dc=2, racks_per_pod=2, hosts_per_rack=2
        )
        dist = cloud.distance(a, b)
        path = cloud.path(a, b)
        assert cloud.distance(b, a) == dist
        assert len(path) % 2 == 0
        if dist == 0:
            assert path == ()
        else:
            assert len(path) >= 2
        # hop count grows with distance
        if dist > 0:
            assert len(path) == cloud.hop_count(a, b)


class TestTemplateRoundTrip:
    @SETTINGS
    @given(topo=topologies())
    def test_topology_survives_template_roundtrip(self, topo):
        template = template_from_topology(topo)
        back = topology_from_template(template)
        assert set(back.nodes) == set(topo.nodes)
        for name in topo.nodes:
            assert back.node(name) == topo.node(name)
        assert sorted(
            (min(l.a, l.b), max(l.a, l.b), l.bw_mbps) for l in back.links
        ) == sorted(
            (min(l.a, l.b), max(l.a, l.b), l.bw_mbps) for l in topo.links
        )
        assert {(z.name, z.level, z.members) for z in back.zones} == {
            (z.name, z.level, z.members) for z in topo.zones
        }
