"""BA* does each unit of search work once, and search caches free their keys.

* The root pop reuses the initial EG bound instead of re-running EG from
  the root: ``_eg_continue`` sees the root exactly once per search.
* Under the numpy kernel, candidate sets stay column-wise
  (:class:`~repro.core.candidates.CandidateArray`) and the cap split is a
  stable argsort: the head and the lazily built tail must equal the python
  reference (``_candidate_targets_python``, a stable ``_immediate_cost``
  sort, then the cap split), and only the targets a search scores or tries
  are ever built.
* ``StateView`` / ``CloudArrays`` are weak-keyed caches
  whose values hold no strong reference to their key, so a searched state
  and a dropped cloud are freed.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import candidates, kernel
from repro.core.astar import BAStar
from repro.core.base import SearchStats
from repro.core.candidates import (
    CandidateArray,
    _candidate_targets_python,
    candidate_targets,
)
from repro.core.deadline import DBAStar
from repro.core.greedy import (
    GreedyConfig,
    _immediate_cost,
    most_free_nic_tie,
    preselect,
    run_greedy_from,
)
from repro.core.heuristic import LowerBoundEstimator
from repro.core.objective import Objective
from repro.core.placement import PartialPlacement
from repro.core.topology import ApplicationTopology
from repro.datacenter.builder import build_datacenter
from repro.datacenter.loadgen import apply_random_load
from repro.datacenter.model import Level
from repro.datacenter.state import DataCenterState
from tests.conftest import make_three_tier
from tests.test_properties import topologies

needs_numpy = pytest.mark.skipif(
    not kernel.HAVE_NUMPY, reason="numpy kernel unavailable"
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _loaded(seed=7, racks=4, hosts=4):
    cloud = build_datacenter(num_racks=racks, hosts_per_rack=hosts)
    state = DataCenterState(cloud)
    apply_random_load(state, fraction_hosts=0.3, seed=seed)
    return cloud, state


class TestRootBoundReuse:
    def _count_root_runs(self, monkeypatch, algorithm):
        calls = []
        original = BAStar._eg_continue

        def spy(self, partial, remaining, objective, estimator, stats):
            calls.append(partial)
            return original(self, partial, remaining, objective, estimator, stats)

        monkeypatch.setattr(BAStar, "_eg_continue", spy)
        cloud, state = _loaded()
        algorithm.place(make_three_tier(), cloud, state)
        root = calls[0]  # the initial bound run starts from the root
        return sum(1 for partial in calls if partial is root), len(calls)

    def test_bastar_runs_eg_from_the_root_once(self, monkeypatch):
        root_runs, runs = self._count_root_runs(
            monkeypatch, BAStar(max_expansions=60)
        )
        assert root_runs == 1
        assert runs > 1  # the search still re-runs EG from deeper paths

    def test_dbastar_runs_eg_from_the_root_once(self, monkeypatch):
        root_runs, _ = self._count_root_runs(
            monkeypatch, DBAStar(deadline_s=0.3, seed=1)
        )
        assert root_runs == 1

    def test_root_pop_leaves_the_initial_run_duration(self):
        algorithm = BAStar(max_expansions=1)  # expands the root only
        cloud, state = _loaded()
        result = algorithm.place(make_three_tier(), cloud, state)
        assert result.stats.eg_bound_runs == 1
        assert 0.0 < algorithm._last_eg_duration <= result.stats.runtime_s


def _reference_split(partial, objective, node, targets, cap, tie_key):
    """The python kernel's path, spelled out: stable tie-key sort, then a
    stable immediate-cost sort and the cap split when over the cap."""
    targets = list(targets)
    if tie_key is not None:
        targets.sort(key=tie_key)
    if cap is None or len(targets) <= cap:
        return targets, []
    targets.sort(key=lambda t: _immediate_cost(partial, objective, node, t))
    return targets[:cap], targets[cap:]


@needs_numpy
class TestLazyRanking:
    @SETTINGS
    @given(
        topo=topologies(max_vms=5, max_volumes=3),
        seed=st.integers(0, 40),
        placed=st.integers(0, 4),
        picks=st.lists(st.integers(0, 50), min_size=4, max_size=4),
        dedup=st.booleans(),
        limit=st.one_of(st.none(), st.integers(1, 30)),
        cap=st.one_of(st.none(), st.integers(1, 8)),
        tie=st.booleans(),
    )
    def test_split_equals_python_reference(
        self, topo, seed, placed, picks, dedup, limit, cap, tie
    ):
        # over 16 hosts: numpy's unstable sorts fall back to an insertion
        # sort (stable) below that, which would hide an unstable ranking
        cloud, state = _loaded(seed=seed, racks=4, hosts=6)
        objective = Objective.for_topology(topo, cloud)
        partial = PartialPlacement(topo, state)
        order = topo.sorted_by_weight()
        # a partial placement of the first few nodes, on drawn candidates
        for name, pick in zip(order[: min(placed, len(order) - 1)], picks):
            options = _candidate_targets_python(partial, name, dedup=False)
            if not options:
                break
            target = options[pick % len(options)]
            partial.assign(name, target.host, target.disk)
        node = next(n for n in order if not partial.is_placed(n))
        tie_key = most_free_nic_tie(partial) if tie else None

        reference = _candidate_targets_python(
            partial, node, dedup=dedup, limit=limit
        )
        ref_head, ref_tail = _reference_split(
            partial, objective, node, reference, cap, tie_key
        )
        for name in ("numpy", "crosscheck"):
            with kernel.use_kernel(name):
                targets = candidate_targets(
                    partial, node, dedup=dedup, limit=limit
                )
                assert isinstance(targets, CandidateArray)
                assert targets == reference
                head, tail = preselect(
                    partial, objective, node, targets, cap, tie_key
                )
            assert list(head) == ref_head
            assert list(tail) == ref_tail
            assert [head[i] for i in range(len(head))] == ref_head

    def test_volume_ties_keep_input_order(self):
        """An idle cloud gives every disk the same immediate cost: the
        ranking must be the input order, split at the cap."""
        cloud = build_datacenter(num_racks=4, hosts_per_rack=8)
        topo = ApplicationTopology("vol")
        topo.add_vm("vm", 2, 2)
        topo.add_volume("v", 50)
        topo.connect("vm", "v", 100)
        partial = PartialPlacement(topo, DataCenterState(cloud))
        objective = Objective.for_topology(topo, cloud)
        reference = _candidate_targets_python(partial, "v", dedup=False)
        with kernel.use_kernel("crosscheck"):
            targets = candidate_targets(partial, "v", dedup=False)
            head, tail = preselect(partial, objective, "v", targets, 5, None)
        assert list(head) + list(tail) == reference
        assert len(head) == 5 and all(t.disk is not None for t in head)


def _trap(cloud):
    """Host 0's NIC is drained to 50 Mbps and 'c' must be host-separated
    from its 100 Mbps neighbor 'a': with 'a' on host 0, 'c' has nowhere to
    go, and only a later candidate for 'a' helps."""
    topo = ApplicationTopology("trap")
    topo.add_vm("a", 1, 1)
    topo.add_vm("b", 1, 1)
    topo.add_vm("c", 1, 1)
    topo.connect("a", "c", 100)
    topo.add_zone("z", Level.HOST, ["a", "c"])
    state = DataCenterState(cloud)
    nic0 = cloud.hosts[0].link_index
    state.reserve_path((nic0,), cloud.link_capacity_mbps[nic0] - 50)
    return topo, state


@needs_numpy
class TestBacktrackIntoTail:
    @pytest.mark.parametrize("dedup", [True, False])
    def test_eg_backtracks_into_the_lazy_tail(self, dedup):
        cloud = build_datacenter(num_racks=2, hosts_per_rack=4)
        # one scored candidate per node: every alternative is in the tail
        config = GreedyConfig(dedup=dedup, max_full_candidates=1)
        outcomes = {}
        for name in ("python", "numpy", "crosscheck"):
            topo, state = _trap(cloud)
            partial = PartialPlacement(topo, state)
            stats = SearchStats()
            with kernel.use_kernel(name):
                run_greedy_from(
                    partial,
                    ["a", "b", "c"],
                    Objective.for_topology(topo, cloud),
                    LowerBoundEstimator(cloud),
                    config,
                    stats,
                )
            outcomes[name] = (
                sorted((a.node, a.host) for a in partial.assignments.values()),
                stats.backtracks,
                stats.candidates_scored,
            )
        assert outcomes["numpy"] == outcomes["python"]
        assert outcomes["crosscheck"] == outcomes["python"]
        hosts = dict(outcomes["python"][0])
        assert outcomes["python"][1] >= 1
        assert hosts["a"] != 0  # the tail's next candidate was taken


@needs_numpy
class TestOnlyScoredTargetsAreBuilt:
    def test_bastar_builds_at_most_the_capped_heads(self, monkeypatch):
        cap = 3
        built = []
        sizes = []
        make = candidates.CandidateTarget

        def counting(*args):
            built.append(args)
            return make(*args)

        def sized(original):
            def wrapper(*args, **kwargs):
                targets = original(*args, **kwargs)
                sizes.append(len(targets))
                return targets
            return wrapper

        monkeypatch.setattr(candidates, "CandidateTarget", counting)
        for module in ("repro.core.astar", "repro.core.greedy"):
            monkeypatch.setattr(
                f"{module}.candidate_targets", sized(candidate_targets)
            )
        cloud = build_datacenter(num_racks=6, hosts_per_rack=8)
        state = DataCenterState(cloud)
        apply_random_load(state, fraction_hosts=0.5, seed=3)
        algorithm = BAStar(
            GreedyConfig(max_full_candidates=cap), max_expansions=20
        )
        with kernel.use_kernel("numpy"):
            result = algorithm.place(make_three_tier(), cloud, state)
        assert result.stats.backtracks == 0
        assert len(built) <= sum(min(size, cap) for size in sizes)
        assert sum(sizes) > 2 * len(built)  # most targets were never built


class TestCachesFreeTheirKeys:
    @pytest.mark.parametrize(
        "kernel_name",
        ["python", pytest.param("numpy", marks=needs_numpy)],
    )
    @pytest.mark.parametrize(
        "make_algorithm",
        [lambda: BAStar(max_expansions=30), lambda: DBAStar(deadline_s=0.2)],
        ids=["ba*", "dba*"],
    )
    def test_search_states_and_cloud_are_freed(
        self, monkeypatch, kernel_name, make_algorithm
    ):
        searched = []
        if kernel.HAVE_NUMPY:
            original = kernel.StateView.for_state.__func__

            def tracking(cls, state):
                searched.append(weakref.ref(state))
                return original(cls, state)

            monkeypatch.setattr(
                kernel.StateView, "for_state", classmethod(tracking)
            )
        cloud, state = _loaded()
        with kernel.use_kernel(kernel_name):
            make_algorithm().place(make_three_tier(), cloud, state)
        cloud_ref, state_ref = weakref.ref(cloud), weakref.ref(state)
        del cloud, state
        gc.collect()
        assert state_ref() is None
        assert cloud_ref() is None
        assert all(ref() is None for ref in searched)
        if kernel_name == "numpy":
            assert searched  # the numpy search did cache state views
