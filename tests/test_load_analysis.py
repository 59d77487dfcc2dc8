"""Tests for optimal-load computation (closed forms vs LP)."""

import numpy as np
import pytest

from repro.errors import QuorumSystemError
from repro.placement.fractional import element_loads_of_strategy
from repro.quorums.base import EnumeratedQuorumSystem
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.load_analysis import _lp_optimal_load, optimal_load
from repro.quorums.singleton import SingletonQuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem

from oracles import load_of_strategy


class TestClosedForms:
    def test_singleton(self):
        assert optimal_load(SingletonQuorumSystem()).l_opt == 1.0

    @pytest.mark.parametrize("n,q", [(3, 2), (5, 3), (21, 17), (49, 25)])
    def test_threshold(self, n, q):
        qs = ThresholdQuorumSystem(n, q)
        assert optimal_load(qs).l_opt == pytest.approx(q / n)

    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    def test_grid(self, k):
        g = GridQuorumSystem(k)
        analysis = optimal_load(g)
        assert analysis.l_opt == pytest.approx((2 * k - 1) / k**2)
        # The witnessing strategy attains the claimed load.
        assert load_of_strategy(g, analysis.strategy) == pytest.approx(
            analysis.l_opt
        )


class TestLPCrossValidation:
    @pytest.mark.parametrize("n,q", [(3, 2), (5, 3), (7, 4)])
    def test_threshold_lp_matches_closed_form(self, n, q):
        qs = ThresholdQuorumSystem(n, q)
        assert _lp_optimal_load(qs).l_opt == pytest.approx(
            q / n, abs=1e-9
        )

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_grid_lp_matches_closed_form(self, k):
        g = GridQuorumSystem(k)
        assert _lp_optimal_load(g).l_opt == pytest.approx(
            (2 * k - 1) / k**2, abs=1e-9
        )

    def test_lp_strategy_is_distribution(self):
        analysis = _lp_optimal_load(GridQuorumSystem(3))
        assert analysis.strategy is not None
        assert analysis.strategy.sum() == pytest.approx(1.0)
        assert np.all(analysis.strategy >= -1e-9)

    def test_asymmetric_system(self):
        # Quorums {0,1}, {0,2}: element 0 is in every quorum, L_opt = 1.
        qs = EnumeratedQuorumSystem(
            [frozenset({0, 1}), frozenset({0, 2})], name="star"
        )
        assert _lp_optimal_load(qs).l_opt == pytest.approx(1.0)

    def test_non_enumerable_lp_rejected(self):
        qs = ThresholdQuorumSystem(49, 25)
        with pytest.raises(QuorumSystemError):
            _lp_optimal_load(qs)


class TestLoadOfStrategy:
    """The test-side load oracle the closed forms are checked with."""

    def test_uniform_grid(self):
        g = GridQuorumSystem(3)
        uniform = np.full(9, 1.0 / 9.0)
        assert load_of_strategy(g, uniform) == pytest.approx(5 / 9)

    def test_point_mass(self):
        g = GridQuorumSystem(3)
        p = np.zeros(9)
        p[0] = 1.0
        assert load_of_strategy(g, p) == pytest.approx(1.0)

    def test_invalid_strategy_rejected(self):
        g = GridQuorumSystem(2)
        with pytest.raises(QuorumSystemError):
            load_of_strategy(g, np.array([0.5, 0.5]))  # wrong length
        with pytest.raises(QuorumSystemError):
            load_of_strategy(g, np.full(4, 0.3))  # does not sum to 1


def _loop_element_loads(system, p):
    """The quorum-by-quorum double loop both load functions used to run."""
    loads = np.zeros(system.universe_size)
    for i, quorum in enumerate(system.quorums):
        for u in quorum:
            loads[u] += p[i]
    return loads


def _strategies(m, seed):
    rng = np.random.default_rng(seed)
    point = np.zeros(m)
    point[m // 2] = 1.0
    sparse = rng.dirichlet(np.ones(m))
    sparse[::2] = 0.0  # zero-weight quorums between positive ones
    sparse /= sparse.sum()
    return [
        np.full(m, 1.0 / m),
        point,
        sparse,
        *rng.dirichlet(np.ones(m), size=4),
    ]


class TestElementLoadsBitIdentity:
    """The shared quorum-major bincount sums every element's quorum
    weights in the loop's order, so element loads (and the load oracle
    built on them) stay bit-identical to the loop they replaced."""

    SYSTEMS = [
        GridQuorumSystem(3),
        ThresholdQuorumSystem(5, 3),
        EnumeratedQuorumSystem(
            [
                frozenset({0, 1}),
                frozenset({0, 2, 3}),
                frozenset({1, 2, 3, 4}),
                frozenset({0, 4}),
            ],
            universe_size=6,  # element 5 sits in no quorum
            name="variable-size",
        ),
    ]

    @pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
    def test_matches_loop_bit_for_bit(self, system):
        for p in _strategies(system.num_quorums, seed=system.num_quorums):
            ref = _loop_element_loads(system, p)
            got = element_loads_of_strategy(system, p)
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()
            assert load_of_strategy(system, p) == float(ref.max())
