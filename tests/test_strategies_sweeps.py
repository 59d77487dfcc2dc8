"""Tests for the capacity sweep and the non-uniform capacity heuristic."""

import numpy as np
import pytest

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.core.response_time import alpha_from_demand
from repro.errors import StrategyError
from repro.placement.search import best_placement
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.load_analysis import optimal_load
from repro.strategies.capacity_sweep import (
    capacity_levels,
    sweep_uniform_capacities,
)
from repro.strategies.nonuniform import (
    nonuniform_capacities,
    sweep_nonuniform_capacities,
)


@pytest.fixture()
def grid3_placed(line_topology):
    return PlacedQuorumSystem(
        GridQuorumSystem(3), Placement(list(range(9))), line_topology
    )


class TestCapacityLevels:
    def test_paper_grid(self):
        levels = capacity_levels(0.5, steps=10)
        assert len(levels) == 10
        assert levels[0] == pytest.approx(0.55)
        assert levels[-1] == pytest.approx(1.0)

    def test_strictly_increasing_from_lopt(self):
        levels = capacity_levels(0.2, steps=4)
        assert np.all(np.diff(levels) > 0)
        assert levels[0] > 0.2

    def test_validation(self):
        with pytest.raises(StrategyError):
            capacity_levels(0.0)
        with pytest.raises(StrategyError):
            capacity_levels(1.5)
        with pytest.raises(StrategyError):
            capacity_levels(0.5, steps=0)


class TestUniformSweep:
    def test_network_delay_nonincreasing_in_capacity(self, grid3_placed):
        sweep = sweep_uniform_capacities(grid3_placed, alpha=50.0)
        deltas = np.diff(sweep.network_delays)
        assert np.all(deltas <= 1e-6)

    def test_best_is_minimum(self, grid3_placed):
        sweep = sweep_uniform_capacities(grid3_placed, alpha=50.0)
        assert sweep.best.result.avg_response_time == pytest.approx(
            sweep.response_times.min()
        )

    def test_high_demand_prefers_low_capacity(self, grid3_placed):
        """Under extreme demand, dispersing load beats close quorums."""
        sweep = sweep_uniform_capacities(grid3_placed, alpha=500.0)
        assert sweep.best.capacity == pytest.approx(sweep.capacities.min())

    def test_zero_demand_prefers_high_capacity(self, grid3_placed):
        sweep = sweep_uniform_capacities(grid3_placed, alpha=0.0)
        best_delay = sweep.best.result.avg_response_time
        assert best_delay == pytest.approx(sweep.network_delays.min())

    def test_explicit_levels(self, grid3_placed):
        sweep = sweep_uniform_capacities(
            grid3_placed, alpha=10.0, levels=np.array([0.8, 1.0])
        )
        assert list(sweep.capacities) == [0.8, 1.0]

    def test_infeasible_levels_skipped(self, grid3_placed):
        l_opt = optimal_load(grid3_placed.system).l_opt
        sweep = sweep_uniform_capacities(
            grid3_placed,
            alpha=10.0,
            levels=np.array([l_opt * 0.5, 1.0]),
        )
        assert list(sweep.capacities) == [1.0]

    def test_infeasible_levels_recorded_not_silently_dropped(
        self, grid3_placed
    ):
        l_opt = optimal_load(grid3_placed.system).l_opt
        sweep = sweep_uniform_capacities(
            grid3_placed,
            alpha=10.0,
            levels=np.array([l_opt * 0.25, l_opt * 0.5, 1.0]),
        )
        assert sweep.infeasible_capacities == pytest.approx(
            (l_opt * 0.25, l_opt * 0.5)
        )

    def test_all_feasible_records_nothing(self, grid3_placed):
        sweep = sweep_uniform_capacities(
            grid3_placed, alpha=10.0, levels=np.array([0.8, 1.0])
        )
        assert sweep.infeasible_capacities == ()


class TestPaperLevelCount:
    """Section 7 sweeps 10 capacity levels between L_opt and 1. On
    Planetlab-50 with the 5x5 Grid at demand 16000, the best response time
    over 10 levels is within 3% of the best over 20, and 20 levels never do
    worse than 2."""

    def test_ten_levels_within_three_percent_of_twenty(self, planetlab):
        system = GridQuorumSystem(5)
        placed = best_placement(planetlab, system).placed
        alpha = alpha_from_demand(16000)
        l_opt = optimal_load(system).l_opt
        best = {
            steps: sweep_uniform_capacities(
                placed, alpha, levels=capacity_levels(l_opt, steps)
            ).best.result.avg_response_time
            for steps in (2, 10, 20)
        }
        assert best[20] <= best[2] + 1e-9
        assert best[10] <= best[20] * 1.03


class TestNonuniformCapacities:
    def test_range_endpoints(self, grid3_placed):
        caps = nonuniform_capacities(grid3_placed, beta=0.3, gamma=0.9)
        support = grid3_placed.placement.support_set
        mean_dist = grid3_placed.topology.mean_distances()[support]
        farthest = support[np.argmax(mean_dist)]
        closest = support[np.argmin(mean_dist)]
        assert caps[farthest] == pytest.approx(0.3)
        assert caps[closest] == pytest.approx(0.9)

    def test_monotone_in_distance(self, grid3_placed):
        caps = nonuniform_capacities(grid3_placed, beta=0.2, gamma=1.0)
        support = grid3_placed.placement.support_set
        mean_dist = grid3_placed.topology.mean_distances()[support]
        order = np.argsort(mean_dist)
        assert np.all(np.diff(caps[support][order]) <= 1e-12)

    def test_non_support_nodes_unconstrained(self, grid3_placed):
        caps = nonuniform_capacities(grid3_placed, beta=0.3, gamma=0.9)
        assert caps[9] == 1.0  # node 9 hosts nothing

    def test_invalid_interval(self, grid3_placed):
        with pytest.raises(StrategyError):
            nonuniform_capacities(grid3_placed, beta=0.9, gamma=0.3)
        with pytest.raises(StrategyError):
            nonuniform_capacities(grid3_placed, beta=-0.1, gamma=0.5)

    def test_requires_one_to_one(self, line_topology):
        placed = PlacedQuorumSystem(
            GridQuorumSystem(2), Placement([0, 0, 1, 1]), line_topology
        )
        with pytest.raises(StrategyError):
            nonuniform_capacities(placed, beta=0.3, gamma=0.9)

    def test_degenerate_equal_distances(self):
        """All support nodes equidistant: capacities collapse to gamma."""
        import numpy as np
        from repro.network.graph import Topology

        # Equilateral-ish: 3 nodes pairwise 10 ms apart + one client hub.
        m = np.full((4, 4), 10.0)
        np.fill_diagonal(m, 0.0)
        topo = Topology(m, metric_closure=False)
        placed = PlacedQuorumSystem(
            ThresholdOrGrid := GridQuorumSystem(1), Placement([1]), topo
        )
        caps = nonuniform_capacities(placed, beta=0.3, gamma=0.8)
        assert caps[1] == pytest.approx(0.8)


class TestNonuniformSweep:
    def test_points_and_best(self, grid3_placed):
        sweep = sweep_nonuniform_capacities(grid3_placed, alpha=50.0)
        assert len(sweep.points) >= 1
        assert len(sweep.points) + len(sweep.infeasible_gammas) == 10
        assert sweep.best.result.avg_response_time == pytest.approx(
            min(p.result.avg_response_time for p in sweep.points)
        )

    def test_capacities_within_interval(self, grid3_placed):
        l_opt = optimal_load(grid3_placed.system).l_opt
        sweep = sweep_nonuniform_capacities(grid3_placed, alpha=50.0)
        support = grid3_placed.placement.support_set
        for point in sweep.points:
            caps = point.capacities[support]
            assert np.all(caps >= l_opt - 1e-9)
            assert np.all(caps <= point.gamma + 1e-9)

    def test_nonuniform_no_worse_than_uniform_on_average(
        self, grid3_placed
    ):
        """Across the sweep the heuristic should not lose to uniform
        capacities (paper Figure 7.7)."""
        alpha = 112.0
        uniform = sweep_uniform_capacities(grid3_placed, alpha=alpha)
        nonuni = sweep_nonuniform_capacities(grid3_placed, alpha=alpha)
        assert (
            nonuni.response_times.mean()
            <= uniform.response_times.mean() + 1e-6
        )
