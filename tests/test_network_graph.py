"""Tests for the topology model."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

import repro.network.graph as graph_module
from repro.errors import TopologyError
from repro.network.datasets import daxlist_161, planetlab_50
from repro.network.graph import Topology
from repro.runtime.cache import topology_fingerprint

from oracles import validate_metric


def simple_matrix():
    return np.array(
        [
            [0.0, 10.0, 20.0],
            [10.0, 0.0, 15.0],
            [20.0, 15.0, 0.0],
        ]
    )


class TestConstruction:
    def test_symmetrizing_allocates_one_matrix(self):
        """One new n x n matrix, halved in place, with the bits of
        ``(rtt + rtt.T) / 2.0``; the caller's array is read-only here, so
        writing into it would raise."""
        n = 2000
        rtt = np.random.default_rng(0).uniform(1.0, 100.0, size=(n, n))
        np.fill_diagonal(rtt, 0.0)
        rtt.setflags(write=False)
        tracemalloc.start()
        try:
            topo = Topology(rtt, metric_closure=False)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * n * 8
        assert np.array_equal(topo.rtt, (rtt + rtt.T) / 2.0)

    def test_basic(self):
        topo = Topology(simple_matrix())
        assert topo.n_nodes == 3
        assert len(topo) == 3
        assert topo.names == ("site-0", "site-1", "site-2")

    def test_distance_lookup(self):
        topo = Topology(simple_matrix())
        assert topo.distance(0, 1) == 10.0
        assert topo.distance(1, 0) == 10.0
        assert topo.distance(2, 2) == 0.0

    def test_custom_names(self):
        topo = Topology(simple_matrix(), names=["a", "b", "c"])
        assert topo.index_of("b") == 1

    def test_unknown_name_raises(self):
        topo = Topology(simple_matrix(), names=["a", "b", "c"])
        with pytest.raises(TopologyError):
            topo.index_of("zz")

    def test_duplicate_names_rejected(self):
        with pytest.raises(TopologyError):
            Topology(simple_matrix(), names=["a", "a", "b"])

    def test_wrong_name_count_rejected(self):
        with pytest.raises(TopologyError):
            Topology(simple_matrix(), names=["a"])

    def test_non_square_rejected(self):
        with pytest.raises(TopologyError):
            Topology(np.zeros((2, 3)))

    def test_negative_rtt_rejected(self):
        m = simple_matrix()
        m[0, 1] = m[1, 0] = -1.0
        with pytest.raises(TopologyError):
            Topology(m)

    def test_nonzero_diagonal_rejected(self):
        m = simple_matrix()
        m[1, 1] = 5.0
        with pytest.raises(TopologyError):
            Topology(m)

    def test_nan_rejected(self):
        m = simple_matrix()
        m[0, 2] = np.nan
        with pytest.raises(TopologyError):
            Topology(m)

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            Topology(np.zeros((0, 0)))

    def test_asymmetry_is_averaged(self):
        m = simple_matrix()
        m[0, 1] = 12.0  # m[1, 0] stays 10
        topo = Topology(m, metric_closure=False)
        assert topo.distance(0, 1) == pytest.approx(11.0)
        assert topo.distance(1, 0) == pytest.approx(11.0)

    def test_rtt_matrix_read_only(self):
        topo = Topology(simple_matrix())
        with pytest.raises(ValueError):
            topo.rtt[0, 1] = 99.0


class TestMetricClosure:
    def test_closure_shortens_triangle_violations(self):
        m = np.array(
            [
                [0.0, 1.0, 50.0],
                [1.0, 0.0, 1.0],
                [50.0, 1.0, 0.0],
            ]
        )
        topo = Topology(m, metric_closure=True)
        assert topo.distance(0, 2) == pytest.approx(2.0)

    def test_closure_disabled_keeps_raw(self):
        m = np.array(
            [
                [0.0, 1.0, 50.0],
                [1.0, 0.0, 1.0],
                [50.0, 1.0, 0.0],
            ]
        )
        topo = Topology(m, metric_closure=False)
        assert topo.distance(0, 2) == 50.0

    def test_validate_metric_passes_after_closure(self):
        rng = np.random.default_rng(7)
        m = rng.uniform(1.0, 100.0, size=(12, 12))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0.0)
        topo = Topology(m, metric_closure=True)
        validate_metric(topo)

    def test_validate_metric_catches_violation(self):
        m = np.array(
            [
                [0.0, 1.0, 50.0],
                [1.0, 0.0, 1.0],
                [50.0, 1.0, 0.0],
            ]
        )
        topo = Topology(m, metric_closure=False)
        with pytest.raises(TopologyError):
            validate_metric(topo)


@st.composite
def _link_matrices(draw):
    """A symmetric RTT matrix in which a zero off the diagonal is a
    missing link, and the node labels of the components it is cut into:
    links between differently labelled nodes are missing."""
    n = draw(st.integers(2, 8))
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.1, 100.0)),
            min_size=n * n,
            max_size=n * n,
        )
    )
    upper = np.triu(np.array(weights).reshape(n, n), 1)
    labels = np.array(
        draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    )
    upper[labels[:, None] != labels[None, :]] = 0.0
    return upper + upper.T, labels


class TestClosureEqualsScipy:
    """The numpy Floyd–Warshall equals ``scipy.sparse.csgraph``'s, bit
    for bit, and so leaves every preset's bytes and cache keys as they
    were."""

    @pytest.mark.parametrize("preset", [planetlab_50, daxlist_161])
    def test_presets(self, preset, monkeypatch):
        closures = []
        close = graph_module._close_metric

        def spy(matrix):
            raw = matrix.copy()
            close(matrix)
            closures.append((raw, matrix.copy()))

        monkeypatch.setattr(graph_module, "_close_metric", spy)
        preset()
        ((raw, closed),) = closures
        want = shortest_path(raw, method="FW", directed=False)
        assert closed.tobytes() == want.tobytes()

    @given(_link_matrices())
    @settings(max_examples=200, deadline=None)
    def test_small_matrices_with_missing_links(self, case):
        matrix, labels = case
        closed = Topology(matrix).rtt
        want = shortest_path(matrix, method="FW", directed=False)
        assert closed.tobytes() == want.tobytes()
        apart = labels[:, None] != labels[None, :]
        assert np.isinf(closed[apart]).all()

    @pytest.mark.parametrize(
        ("preset", "digest"),
        [
            (
                planetlab_50,
                "781901c461bf8218c5c85b9de774013d"
                "5d648c24e46cf53f131666f42320073a",
            ),
            (
                daxlist_161,
                "a7dffc6657ed48d78af9779141503b52"
                "10d5b2829ac550d0edb7d15295b16b76",
            ),
        ],
    )
    def test_preset_fingerprints(self, preset, digest):
        assert topology_fingerprint(preset()) == digest


class TestCapacities:
    def test_default_capacities_are_one(self):
        topo = Topology(simple_matrix())
        assert np.all(topo.capacities == 1.0)

    def test_custom_capacities(self):
        topo = Topology(simple_matrix(), capacities=[0.5, 0.2, 1.0])
        assert topo.capacities[1] == 0.2

    def test_negative_capacity_rejected(self):
        with pytest.raises(TopologyError):
            Topology(simple_matrix(), capacities=[-0.1, 1.0, 1.0])

    def test_wrong_capacity_count_rejected(self):
        with pytest.raises(TopologyError):
            Topology(simple_matrix(), capacities=[1.0])

    def test_with_capacities_returns_new_topology(self):
        topo = Topology(simple_matrix())
        other = topo.with_capacities([0.1, 0.2, 0.3])
        assert np.all(topo.capacities == 1.0)
        assert other.capacities[2] == 0.3
        assert other.distance(0, 1) == topo.distance(0, 1)


class TestBall:
    def test_ball_includes_self_first(self, line_topology):
        ball = line_topology.ball(3, 1)
        assert list(ball) == [3]

    def test_ball_of_full_size(self, line_topology):
        ball = line_topology.ball(0, 10)
        assert sorted(ball) == list(range(10))

    def test_ball_picks_nearest(self, line_topology):
        ball = line_topology.ball(0, 3)
        assert sorted(ball) == [0, 1, 2]

    def test_ball_interior_node(self, line_topology):
        ball = line_topology.ball(5, 3)
        # node 5 plus its two 10ms-away neighbours (tie broken by id).
        assert 5 in ball and len(ball) == 3
        assert set(ball) <= {3, 4, 5, 6, 7}

    def test_ball_respects_capacity_bound(self):
        topo = Topology(
            simple_matrix(), capacities=[1.0, 0.1, 1.0]
        )
        ball = topo.ball(0, 2, capacity_at_least=0.5)
        assert list(sorted(ball)) == [0, 2]  # node 1 is too small

    def test_ball_capacity_shortage_raises(self):
        topo = Topology(simple_matrix(), capacities=[1.0, 0.1, 0.1])
        with pytest.raises(TopologyError):
            topo.ball(0, 3, capacity_at_least=0.5)

    def test_ball_excludes_ineligible_center(self):
        """``v`` obeys the capacity bound like every other node."""
        topo = Topology(simple_matrix(), capacities=[0.1, 1.0, 1.0])
        assert list(topo.ball(0, 2, capacity_at_least=0.5)) == [1, 2]
        assert list(topo.ball(0, 1, capacity_at_least=0.5)) == [1]

    def test_ball_shortage_counts_only_eligible_nodes(self):
        topo = Topology(simple_matrix(), capacities=[0.1, 1.0, 0.1])
        with pytest.raises(TopologyError, match="only 1 nodes"):
            topo.ball(0, 2, capacity_at_least=0.5)

    def test_ball_breaks_distance_ties_by_node_id(self):
        rtt = np.full((5, 5), 7.0)
        np.fill_diagonal(rtt, 0.0)
        topo = Topology(rtt, metric_closure=False)
        assert list(topo.ball(3, 3)) == [3, 0, 1]
        assert list(topo.ball(3, 2, capacity_at_least=0.5)) == [3, 0]

    def test_ball_size_out_of_range(self, line_topology):
        with pytest.raises(TopologyError):
            line_topology.ball(0, 0)
        with pytest.raises(TopologyError):
            line_topology.ball(0, 11)


class TestMedianAndMeans:
    def test_line_median_is_center(self, line_topology):
        med = line_topology.median()
        assert med in (4, 5)  # both central nodes minimize the sum

    def test_mean_distances_row_means(self, line_topology):
        means = line_topology.mean_distances()
        manual = line_topology.rtt.mean(axis=0)
        assert np.allclose(means, manual)


class TestSubtopology:
    def test_subtopology_preserves_distances(self, line_topology):
        sub = line_topology.subtopology([2, 5, 9])
        assert sub.n_nodes == 3
        assert sub.distance(0, 1) == line_topology.distance(2, 5)
        assert sub.distance(1, 2) == line_topology.distance(5, 9)

    def test_subtopology_carries_names(self, line_topology):
        sub = line_topology.subtopology([0, 9])
        assert sub.names == ("site-0", "site-9")

    def test_subtopology_duplicates_rejected(self, line_topology):
        with pytest.raises(TopologyError):
            line_topology.subtopology([1, 1])

    def test_subtopology_empty_rejected(self, line_topology):
        with pytest.raises(TopologyError):
            line_topology.subtopology([])
