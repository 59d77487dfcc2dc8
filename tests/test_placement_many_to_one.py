"""Tests for the LP -> filter -> round many-to-one placement pipeline."""

import numpy as np
import pytest

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.errors import InfeasibleError, PlacementError
from repro.placement.filtering import lin_vitter_filter
from repro.placement.fractional import (
    FractionalProgram,
    element_loads_of_strategy,
)
from repro.placement.gap import round_fractional_placement
from repro.placement.many_to_one import (
    best_many_to_one_placement,
    many_to_one_placement,
)
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem


class TestElementLoads:
    def test_uniform_grid(self):
        g = GridQuorumSystem(3)
        loads = element_loads_of_strategy(g, np.full(9, 1 / 9))
        assert np.allclose(loads, 5 / 9)

    def test_point_mass(self):
        g = GridQuorumSystem(2)
        p = np.zeros(4)
        p[3] = 1.0  # quorum (1,1) = {e2, e3, e1}
        loads = element_loads_of_strategy(g, p)
        assert loads.sum() == pytest.approx(3.0)


class TestFractionalPlacement:
    def test_unconstrained_collapses_to_v0(self, line_topology):
        """With capacity >= total load on v0's node, everything sits on v0."""
        g = GridQuorumSystem(2)
        caps = np.full(10, 10.0)
        frac = FractionalProgram(line_topology, g, 4).solve(capacities=caps)
        assert np.allclose(frac.x[:, 4], 1.0, atol=1e-6)
        assert frac.objective == pytest.approx(0.0, abs=1e-6)

    def test_capacity_forces_spread(self, line_topology):
        g = GridQuorumSystem(2)
        # Element load under uniform = 0.75 each, total 3.0; capacity 1.0
        # per node forces at least 3 nodes.
        caps = np.ones(10)
        frac = FractionalProgram(line_topology, g, 4).solve(capacities=caps)
        node_mass = (frac.x * 0.75).sum(axis=0)
        assert np.all(node_mass <= 1.0 + 1e-6)

    def test_rows_sum_to_one(self, line_topology):
        g = GridQuorumSystem(3)
        frac = FractionalProgram(line_topology, g, 0).solve()
        assert np.allclose(frac.x.sum(axis=1), 1.0, atol=1e-6)

    def test_infeasible_capacities(self, line_topology):
        g = GridQuorumSystem(2)
        caps = np.full(10, 0.1)  # total 1.0 < total load 3.0
        with pytest.raises(InfeasibleError):
            FractionalProgram(line_topology, g, 0).solve(capacities=caps)

    def test_objective_bounds_capacity_respecting_solutions(
        self, line_topology
    ):
        """LP relaxation lower-bounds every *capacity-respecting* integral
        placement (the rounded output may beat it by exceeding capacity)."""
        g = GridQuorumSystem(2)
        caps = np.ones(10)
        frac = FractionalProgram(line_topology, g, 4).solve(capacities=caps)
        # One element per node is capacity-respecting (load 0.75 <= 1).
        for assignment in ([3, 4, 5, 6], [0, 1, 2, 3], [4, 5, 6, 7]):
            placed = PlacedQuorumSystem(
                g, Placement(assignment), line_topology
            )
            integral = placed.delay_matrix[4].mean()
            assert frac.objective <= integral + 1e-6

    def test_non_enumerable_rejected(self, line_topology):
        qs = ThresholdQuorumSystem(49, 25)
        with pytest.raises(PlacementError):
            FractionalProgram(line_topology, qs, 0)

    def test_bad_v0_rejected(self, line_topology):
        with pytest.raises(PlacementError):
            FractionalProgram(line_topology, GridQuorumSystem(2), 99)


class TestLinVitterFilter:
    def test_identity_on_integral(self):
        x = np.eye(3)
        dist = np.array([5.0, 10.0, 20.0])
        filtered = lin_vitter_filter(x, dist, eps=0.5)
        assert np.allclose(filtered, x)

    def test_removes_distant_mass(self):
        # Element split 0.9 near / 0.1 far; far node beyond (1+eps)*D.
        x = np.array([[0.9, 0.1]])
        dist = np.array([1.0, 100.0])
        filtered = lin_vitter_filter(x, dist, eps=0.5)
        assert filtered[0, 1] == 0.0
        assert filtered[0, 0] == pytest.approx(1.0)

    def test_keeps_within_radius(self):
        x = np.array([[0.5, 0.5]])
        dist = np.array([10.0, 12.0])  # D = 11, radius 16.5 at eps=0.5
        filtered = lin_vitter_filter(x, dist, eps=0.5)
        assert np.allclose(filtered, x)

    def test_rows_renormalized(self):
        rng = np.random.default_rng(1)
        x = rng.dirichlet(np.ones(6), size=4)
        dist = rng.uniform(1, 50, size=6)
        filtered = lin_vitter_filter(x, dist, eps=1 / 3)
        assert np.allclose(filtered.sum(axis=1), 1.0)

    def test_zero_distance_element(self):
        x = np.array([[1.0, 0.0]])
        dist = np.array([0.0, 10.0])
        filtered = lin_vitter_filter(x, dist, eps=1 / 3)
        assert filtered[0, 0] == pytest.approx(1.0)

    def test_tolerance_relative_at_planet_scale(self):
        """Regression: the keep-tolerance was an absolute ``+ 1e-12``.
        Float dust on a ~300 ms radius is ~1e-8 — four orders of
        magnitude above the slack — so a node effectively *on* the
        radius could be cut by rounding. The tolerance is relative now:
        within 1e-9 of the radius is kept at any distance scale."""
        x = np.array([[0.5, 0.5]])
        # D ~ 200, radius ~ 300; the far node overshoots the radius by
        # 2e-10 relative (~6e-8 ms) — pure dust at this scale.
        dist = np.array([100.0, 300.0 * (1.0 + 2e-10)])
        filtered = lin_vitter_filter(x, dist, eps=0.5)
        assert np.allclose(filtered, x)

    def test_tolerance_does_not_dominate_micro_scale_rows(self):
        """The absolute slack also dwarfed rows whose distances are
        themselves ~1e-12, keeping nodes ~7x beyond the radius."""
        x = np.array([[0.9, 0.1]])
        dist = np.array([0.0, 1e-12])  # D = 1e-13, radius 1.5e-13
        filtered = lin_vitter_filter(x, dist, eps=0.5)
        assert filtered[0, 1] == 0.0
        assert filtered[0, 0] == pytest.approx(1.0)

    def test_exact_radius_kept_across_scales(self):
        for scale in (1e-6, 1.0, 1e3, 1e8):
            x = np.array([[0.5, 0.5]])
            # D = 2*scale, radius = 3*scale: node 1 sits exactly on it.
            dist = np.array([1.0, 3.0]) * scale
            filtered = lin_vitter_filter(x, dist, eps=0.5)
            assert np.allclose(filtered, x), f"scale={scale}"

    def test_distance_zero_row_keeps_exact_zero_nodes(self):
        """A row entirely on distance-0 nodes has radius 0; the relative
        tolerance must keep those nodes (losing all mass raised)."""
        x = np.array([[0.5, 0.5, 0.0]])
        dist = np.array([0.0, 0.0, 10.0])
        filtered = lin_vitter_filter(x, dist, eps=1 / 3)
        assert np.allclose(filtered, x)

    def test_bad_eps(self):
        with pytest.raises(PlacementError):
            lin_vitter_filter(np.eye(2), np.array([1.0, 2.0]), eps=0.0)

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(PlacementError):
            lin_vitter_filter(
                np.array([[0.4, 0.4]]), np.array([1.0, 2.0])
            )


class TestGapRounding:
    def test_integral_input_round_trips(self):
        x = np.zeros((3, 5))
        x[0, 1] = x[1, 1] = x[2, 4] = 1.0
        dist = np.arange(5.0)
        loads = np.full(3, 0.5)
        placement = round_fractional_placement(x, dist, loads)
        assert placement.node_of(0) == 1
        assert placement.node_of(1) == 1
        assert placement.node_of(2) == 4

    def test_fractional_split_assigns_single_node(self):
        x = np.array([[0.5, 0.5]])
        dist = np.array([3.0, 7.0])
        placement = round_fractional_placement(x, dist, np.array([1.0]))
        assert placement.node_of(0) in (0, 1)

    def test_min_cost_preference(self):
        """Two elements, two nodes with one slot each: matching must pick
        the cheaper perfect matching."""
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        dist = np.array([1.0, 100.0])
        placement = round_fractional_placement(
            x, dist, np.array([1.0, 1.0])
        )
        # Both on node 0 is impossible (one slot); one goes to node 1.
        nodes = {placement.node_of(0), placement.node_of(1)}
        assert nodes == {0, 1}

    def test_capacity_violation_bounded(self, line_topology):
        """Rounded loads respect the pipeline's theoretical guarantee:
        filtering inflates capacity by at most (1+eps)/eps and rounding
        adds at most one element's load per node."""
        g = GridQuorumSystem(3)
        caps = np.full(10, 1.0)
        eps = 1.0 / 3.0
        placement = many_to_one_placement(
            line_topology, g, v0=0, capacities=caps, eps=eps
        )
        element_load = 5 / 9  # uniform grid element load
        loads = np.bincount(
            placement.assignment, minlength=10
        ) * element_load
        bound = (1 + eps) / eps * caps + element_load
        assert np.all(loads <= bound + 1e-9)

    def test_shape_validation(self):
        with pytest.raises(PlacementError):
            round_fractional_placement(
                np.eye(2), np.array([1.0]), np.array([1.0, 1.0])
            )
        with pytest.raises(PlacementError):
            round_fractional_placement(
                np.eye(2), np.array([1.0, 2.0]), np.array([1.0])
            )


class TestManyToOnePipeline:
    def test_loose_capacity_collapses(self, line_topology):
        g = GridQuorumSystem(2)
        placement = many_to_one_placement(
            line_topology, g, v0=4, capacities=np.full(10, 10.0)
        )
        assert placement.support_set.size == 1
        assert placement.node_of(0) == 4

    def test_tight_capacity_spreads(self, line_topology):
        """With a permissive filter (large eps keeps the LP's spread),
        tight capacities force a multi-node support."""
        g = GridQuorumSystem(2)
        placement = many_to_one_placement(
            line_topology, g, v0=4, capacities=np.ones(10), eps=10.0
        )
        assert placement.support_set.size >= 2

    def test_best_search_reports_consistent_winner(self, line_topology):
        g = GridQuorumSystem(2)
        result = best_many_to_one_placement(
            line_topology, g, capacities=np.ones(10)
        )
        assert result.avg_network_delay == pytest.approx(
            min(result.delays_by_candidate.values())
        )

    def test_best_search_infeasible_everywhere(self, line_topology):
        g = GridQuorumSystem(2)
        with pytest.raises(InfeasibleError):
            best_many_to_one_placement(
                line_topology, g, capacities=np.full(10, 0.01)
            )

    def test_many_to_one_beats_one_to_one_delay(self, planetlab):
        """The paper's Figure 8.9 effect: collapse reduces network delay."""
        from repro.placement.search import best_placement

        g = GridQuorumSystem(4)
        o2o = best_placement(planetlab, g)
        m2o = best_many_to_one_placement(
            planetlab,
            g,
            capacities=np.full(50, 0.8),
            candidates=np.arange(10),
        )
        assert m2o.avg_network_delay < o2o.avg_network_delay

    SEARCH_CANDIDATES = [0, 8, 3, 16, 12]

    def test_duplicated_candidates_change_nothing(self, planetlab, lp_backend):
        """Each distinct candidate is evaluated once, in order of first
        occurrence, so a doubled candidate list returns the undoubled
        list's result in every field."""
        g = GridQuorumSystem(3)
        caps = np.full(planetlab.n_nodes, 0.6)
        once = best_many_to_one_placement(
            planetlab, g, capacities=caps, candidates=self.SEARCH_CANDIDATES
        )
        twice = best_many_to_one_placement(
            planetlab, g, capacities=caps,
            candidates=self.SEARCH_CANDIDATES * 2,
        )
        assert twice.v0 == once.v0
        assert twice.avg_network_delay == once.avg_network_delay
        assert list(twice.delays_by_candidate.items()) == list(
            once.delays_by_candidate.items()
        )
        assert (
            twice.placed.placement.assignment.tobytes()
            == once.placed.placement.assignment.tobytes()
        )
        assert twice.delays_by_candidate[twice.v0] == twice.avg_network_delay

    def test_standalone_placement_scores_what_the_search_scored(
        self, planetlab, lp_backend
    ):
        """``many_to_one_placement(v0)`` builds and solves the program the
        search solved for ``v0``, so its placement has exactly the delay
        the search reported for that candidate."""
        g = GridQuorumSystem(3)
        caps = np.full(planetlab.n_nodes, 0.6)
        search = best_many_to_one_placement(
            planetlab, g, capacities=caps, candidates=self.SEARCH_CANDIDATES
        )
        uniform = np.full(g.num_quorums, 1.0 / g.num_quorums)
        assert sorted(search.delays_by_candidate) == sorted(
            self.SEARCH_CANDIDATES
        )
        for v0, delay in search.delays_by_candidate.items():
            placement = many_to_one_placement(
                planetlab, g, v0, capacities=caps
            )
            placed = PlacedQuorumSystem(g, placement, planetlab)
            assert float((placed.delay_matrix @ uniform).mean()) == delay
