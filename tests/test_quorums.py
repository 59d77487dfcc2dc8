"""Tests for quorum-system definitions: thresholds, Grid, singleton."""

import itertools
from math import comb

import pytest

from repro.errors import QuorumSystemError
from repro.quorums.base import EnumeratedQuorumSystem
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.singleton import SingletonQuorumSystem
from repro.quorums.threshold import (
    MajorityKind,
    ThresholdQuorumSystem,
    majority,
    majority_universe_sizes,
)


class TestEnumeratedBase:
    def test_valid_system(self):
        qs = EnumeratedQuorumSystem(
            [frozenset({0, 1}), frozenset({1, 2})], name="pair"
        )
        assert qs.universe_size == 3
        assert qs.num_quorums == 2
        assert qs.min_quorum_size == 2

    def test_disjoint_quorums_rejected(self):
        with pytest.raises(QuorumSystemError):
            EnumeratedQuorumSystem([frozenset({0}), frozenset({1})])

    def test_empty_quorum_rejected(self):
        with pytest.raises(QuorumSystemError):
            EnumeratedQuorumSystem([frozenset()])

    def test_no_quorums_rejected(self):
        with pytest.raises(QuorumSystemError):
            EnumeratedQuorumSystem([])

    def test_element_beyond_universe_rejected(self):
        with pytest.raises(QuorumSystemError):
            EnumeratedQuorumSystem([frozenset({0, 5})], universe_size=3)

    def test_membership_counts(self):
        qs = EnumeratedQuorumSystem(
            [frozenset({0, 1}), frozenset({1, 2})], name="pair"
        )
        assert qs.element_membership_counts() == [1, 2, 1]


class TestThreshold:
    def test_intersection_condition_enforced(self):
        with pytest.raises(QuorumSystemError):
            ThresholdQuorumSystem(universe_size=4, quorum_size=2)

    def test_valid_majority(self):
        qs = ThresholdQuorumSystem(5, 3)
        assert qs.num_quorums == comb(5, 3)
        assert qs.min_quorum_size == 3
        assert qs.fault_tolerance == 2

    def test_enumeration_matches_combinations(self):
        qs = ThresholdQuorumSystem(5, 3)
        expected = {
            frozenset(c) for c in itertools.combinations(range(5), 3)
        }
        assert set(qs.quorums) == expected

    def test_all_pairs_intersect(self):
        qs = ThresholdQuorumSystem(6, 4)
        for a, b in itertools.combinations(qs.quorums, 2):
            assert a & b

    def test_large_threshold_not_enumerable(self):
        qs = ThresholdQuorumSystem(49, 25)
        assert not qs.is_enumerable
        with pytest.raises(QuorumSystemError):
            _ = qs.quorums

    def test_quorum_size_bounds(self):
        with pytest.raises(QuorumSystemError):
            ThresholdQuorumSystem(5, 0)
        with pytest.raises(QuorumSystemError):
            ThresholdQuorumSystem(5, 6)
        with pytest.raises(QuorumSystemError):
            ThresholdQuorumSystem(0, 1)


class TestMajorityFamilies:
    @pytest.mark.parametrize(
        "kind,t,n,q",
        [
            (MajorityKind.SIMPLE, 1, 3, 2),
            (MajorityKind.SIMPLE, 4, 9, 5),
            (MajorityKind.BFT, 1, 4, 3),
            (MajorityKind.BFT, 3, 10, 7),
            (MajorityKind.QU, 1, 6, 5),
            (MajorityKind.QU, 5, 26, 21),
        ],
    )
    def test_family_parameters(self, kind, t, n, q):
        qs = majority(kind, t)
        assert qs.universe_size == n
        assert qs.quorum_size == q

    def test_accepts_string_kind(self):
        qs = majority("(2t+1, 3t+1)", 2)
        assert qs.universe_size == 7

    def test_invalid_t(self):
        with pytest.raises(QuorumSystemError):
            majority(MajorityKind.SIMPLE, 0)

    def test_universe_sizes_sweep(self):
        sizes = majority_universe_sizes(MajorityKind.SIMPLE, 49)
        assert sizes == [3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27,
                         29, 31, 33, 35, 37, 39, 41, 43, 45, 47, 49]

    def test_universe_sizes_qu(self):
        assert majority_universe_sizes(MajorityKind.QU, 49) == [
            6, 11, 16, 21, 26, 31, 36, 41, 46,
        ]


class TestGrid:
    def test_basic_shape(self):
        g = GridQuorumSystem(3)
        assert g.universe_size == 9
        assert g.num_quorums == 9
        assert g.min_quorum_size == 5

    def test_quorum_is_row_plus_column(self):
        g = GridQuorumSystem(3)
        q = g.quorum_for(1, 2)
        rows = {g.element(1, c) for c in range(3)}
        cols = {g.element(r, 2) for r in range(3)}
        assert q == frozenset(rows | cols)

    def test_all_pairs_intersect(self):
        g = GridQuorumSystem(4)
        for a, b in itertools.combinations(g.quorums, 2):
            assert a & b

    def test_element_cell_round_trip(self):
        g = GridQuorumSystem(5)
        for e in range(25):
            r, c = g.cell(e)
            assert g.element(r, c) == e

    def test_uniform_load_formula(self):
        g = GridQuorumSystem(4)
        assert g.uniform_load == pytest.approx(7 / 16)

    def test_k1_degenerates_to_singletonish(self):
        g = GridQuorumSystem(1)
        assert g.quorums == (frozenset({0}),)

    def test_out_of_range_cell(self):
        g = GridQuorumSystem(2)
        with pytest.raises(QuorumSystemError):
            g.element(2, 0)
        with pytest.raises(QuorumSystemError):
            g.cell(4)
        with pytest.raises(QuorumSystemError):
            g.quorum_for(0, 2)

    def test_invalid_k(self):
        with pytest.raises(QuorumSystemError):
            GridQuorumSystem(0)


class TestSingleton:
    def test_shape(self):
        s = SingletonQuorumSystem()
        assert s.universe_size == 1
        assert s.quorums == (frozenset({0}),)
        assert s.min_quorum_size == 1
        s.validate()

