"""Tests for the greedy restart cascade and its helpers."""

from __future__ import annotations

import pytest

from repro.core.base import SearchStats
from repro.core.greedy import (
    EG,
    GreedyConfig,
    greedy_with_restarts,
    most_free_nic_tie,
    sort_nodes_by_bandwidth,
)
from repro.core.heuristic import LowerBoundEstimator
from repro.core.objective import Objective
from repro.core.placement import PartialPlacement
from repro.core.topology import ApplicationTopology
from repro.datacenter.state import DataCenterState
from repro.errors import PlacementError


class TestSortByBandwidth:
    def test_descending_with_name_ties(self):
        t = ApplicationTopology()
        t.add_vm("quiet", 1, 1)
        t.add_vm("b", 1, 1)
        t.add_vm("a", 1, 1)
        t.add_vm("chatty", 1, 1)
        t.connect("chatty", "quiet", 500)
        order = sort_nodes_by_bandwidth(t)
        assert order[0] == "chatty"
        assert order[1] == "quiet"
        assert order[2:] == ["a", "b"]


class TestMostFreeNicTie:
    def test_prefers_freest_nic(self, small_dc):
        from repro.core.candidates import CandidateTarget

        t = ApplicationTopology()
        t.add_vm("x", 1, 1)
        state = DataCenterState(small_dc)
        nic0 = small_dc.hosts[0].link_index
        state.reserve_path((nic0,), 5000)
        partial = PartialPlacement(t, state)
        key = most_free_nic_tie(partial)
        drained = CandidateTarget(host=0)
        fresh = CandidateTarget(host=1)
        assert key(fresh) < key(drained)


class TestGreedyWithRestarts:
    def _context(self, small_dc):
        t = ApplicationTopology()
        t.add_vm("a", 2, 2)
        t.add_vm("b", 2, 2)
        t.connect("a", "b", 100)
        state = DataCenterState(small_dc)
        objective = Objective.for_topology(t, small_dc)
        estimator = LowerBoundEstimator(small_dc)
        return t, state, objective, estimator

    def test_first_strategy_wins_no_restarts(self, small_dc):
        t, state, objective, estimator = self._context(small_dc)
        stats = SearchStats()
        partial = greedy_with_restarts(
            t, state, objective, estimator,
            GreedyConfig(), stats, {},
            strategies=[(list(t.nodes), None), (list(t.nodes), None)],
        )
        assert stats.restarts == 0
        assert len(partial.assignments) == 2

    def test_falls_through_to_working_strategy(self, small_dc):
        t, state, objective, estimator = self._context(small_dc)
        stats = SearchStats()
        bogus_order = ["a"]  # incomplete order places only one node -- use
        # an impossible first strategy instead: an order with an unknown
        # node raises inside run_greedy_from via candidate generation.
        partial = greedy_with_restarts(
            t, state, objective, estimator,
            GreedyConfig(), stats, {},
            strategies=[
                (["a", "b"], _impossible_tie),
                (["a", "b"], None),
            ],
        )
        assert stats.restarts == 1
        assert len(partial.assignments) == 2

    def test_all_fail_reraises_first_error(self, small_dc):
        t, state, objective, estimator = self._context(small_dc)
        stats = SearchStats()
        with pytest.raises(PlacementError):
            greedy_with_restarts(
                t, state, objective, estimator,
                GreedyConfig(), stats, {},
                strategies=[(["a", "b"], _impossible_tie)],
            )

    def test_objective_override_strategy(self, small_dc):
        t, state, objective, estimator = self._context(small_dc)
        stats = SearchStats()
        bw_only = Objective(1.0, 0.0, objective.ubw_hat, objective.uc_hat)
        partial = greedy_with_restarts(
            t, state, objective, estimator,
            GreedyConfig(), stats, {},
            strategies=[(["a", "b"], None, bw_only)],
        )
        assert len(partial.assignments) == 2

    def test_failed_attempts_leave_no_residue(self, small_dc):
        t, state, objective, estimator = self._context(small_dc)
        stats = SearchStats()
        before = state.snapshot()
        partial = greedy_with_restarts(
            t, state, objective, estimator,
            GreedyConfig(), stats, {},
            strategies=[
                (["a", "b"], _impossible_tie),
                (["a", "b"], None),
            ],
        )
        # the input state is never mutated (each attempt works on a clone)
        assert state.snapshot() == before


def _impossible_tie(partial):
    """A tie factory whose strategy always fails: it raises on first use."""

    def key(target):
        raise PlacementError("sabotaged strategy")

    return key


class TestEGFallback:
    def test_eg_reports_restarts_in_stats(self, small_dc):
        """On easy inputs EG succeeds on the paper's strategy: restarts=0."""
        t = ApplicationTopology()
        t.add_vm("a", 2, 2)
        t.add_vm("b", 2, 2)
        t.connect("a", "b", 100)
        result = EG().place(t, small_dc)
        assert result.stats.restarts == 0
