"""Tests for rectangular (general) grid quorum systems — the Kumar et al.
structures the paper cites as [16]."""

import itertools

import pytest

from repro.analysis.fault_tolerance import min_nodes_to_disable
from repro.core.placement import PlacedQuorumSystem
from repro.core.response_time import evaluate
from repro.core.strategy import ExplicitStrategy
from repro.errors import QuorumSystemError
from repro.placement.one_to_one import grid_onion_placement
from repro.placement.search import best_placement
from repro.quorums.grid import (
    GridQuorumSystem,
    RectangularGridQuorumSystem,
)
from repro.quorums.load_analysis import _lp_optimal_load, optimal_load


class TestStructure:
    def test_shape(self):
        g = RectangularGridQuorumSystem(2, 5)
        assert g.universe_size == 10
        assert g.num_quorums == 10
        assert g.min_quorum_size == 6  # 5 + 2 - 1

    def test_quorum_is_row_plus_column(self):
        g = RectangularGridQuorumSystem(2, 3)
        q = g.quorum_for(1, 2)
        row = {g.element(1, c) for c in range(3)}
        col = {g.element(r, 2) for r in range(2)}
        assert q == frozenset(row | col)

    @pytest.mark.parametrize("rows,cols", [(1, 4), (2, 3), (3, 5), (4, 2)])
    def test_all_pairs_intersect(self, rows, cols):
        g = RectangularGridQuorumSystem(rows, cols)
        for a, b in itertools.combinations(g.quorums, 2):
            assert a & b

    def test_element_cell_round_trip(self):
        g = RectangularGridQuorumSystem(3, 4)
        for e in range(12):
            r, c = g.cell(e)
            assert g.element(r, c) == e

    def test_square_grid_is_special_case(self):
        square = GridQuorumSystem(3)
        rect = RectangularGridQuorumSystem(3, 3)
        assert square.quorums == rect.quorums
        assert isinstance(square, RectangularGridQuorumSystem)
        assert square.k == 3

    def test_uniform_load_formula(self):
        g = RectangularGridQuorumSystem(2, 5)
        assert g.uniform_load == pytest.approx(6 / 10)

    def test_invalid_dimensions(self):
        with pytest.raises(QuorumSystemError):
            RectangularGridQuorumSystem(0, 3)
        with pytest.raises(QuorumSystemError):
            RectangularGridQuorumSystem(3, 0)

    def test_optimal_load_closed_form_matches_lp(self):
        g = RectangularGridQuorumSystem(2, 4)
        closed = optimal_load(g).l_opt
        via_lp = _lp_optimal_load(g).l_opt
        # Uniform is optimal for grids; LP can only match it.
        assert via_lp == pytest.approx(closed, abs=1e-9)


class TestPlacementAndAnalysis:
    def test_onion_placement_covers_ball(self, line_topology):
        g = RectangularGridQuorumSystem(2, 4)
        placement = grid_onion_placement(line_topology, g, v0=0)
        assert sorted(placement.assignment) == list(range(8))
        assert placement.is_one_to_one

    def test_onion_farthest_in_origin_cell(self, line_topology):
        g = RectangularGridQuorumSystem(2, 4)
        placement = grid_onion_placement(line_topology, g, v0=0)
        assert placement.node_of(g.element(0, 0)) == 7

    def test_best_placement_dispatch(self, planetlab):
        g = RectangularGridQuorumSystem(3, 4)
        result = best_placement(planetlab, g)
        assert result.placed.placement.is_one_to_one
        assert result.avg_network_delay > 0

    def test_wide_grid_beats_tall_in_load(self):
        """Wider grids have smaller quorum fraction per column access but
        worse load; the load formula captures both shapes."""
        wide = RectangularGridQuorumSystem(2, 8)
        tall = RectangularGridQuorumSystem(8, 2)
        assert wide.uniform_load == tall.uniform_load  # symmetric formula

    def test_fault_tolerance_is_min_dimension(self, planetlab):
        g = RectangularGridQuorumSystem(2, 4)
        placed = PlacedQuorumSystem(
            g,
            grid_onion_placement(planetlab, g, v0=0),
            planetlab,
        )
        # Break every row (2 nodes) or every column (4): min is 2.
        assert min_nodes_to_disable(placed) == 2

    def test_evaluation_pipeline(self, planetlab):
        g = RectangularGridQuorumSystem(2, 6)
        placed = best_placement(planetlab, g).placed
        result = evaluate(
            placed, ExplicitStrategy.uniform(placed), alpha=28.0
        )
        assert result.avg_response_time > result.avg_network_delay > 0
