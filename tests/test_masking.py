"""Tests for intersection/masking properties of threshold systems."""

import numpy as np
import pytest

from repro.quorums.threshold import (
    MajorityKind,
    ThresholdQuorumSystem,
    majority,
)


class TestMinIntersection:
    @pytest.mark.parametrize("n,q", [(3, 2), (5, 3), (7, 5), (16, 11)])
    def test_formula_matches_enumeration(self, n, q):
        """Brute force over every pair of distinct quorums: with ``B`` the
        0/1 quorum-element matrix, ``(B @ B.T)[i, j] = |Q_i & Q_j|``."""
        qs = ThresholdQuorumSystem(n, q)
        members = np.zeros((qs.num_quorums, n), dtype=np.float32)
        for i, quorum in enumerate(qs.quorums):
            members[i, list(quorum)] = 1.0
        sizes = members @ members.T
        np.fill_diagonal(sizes, np.inf)  # a quorum paired with itself
        assert qs.min_intersection == sizes.min()

    def test_large_system_closed_form(self):
        qs = ThresholdQuorumSystem(49, 37)
        assert qs.min_intersection == 2 * 37 - 49


class TestMaskingTolerance:
    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_bft_family_masks_t(self, t):
        """(2t+1, 3t+1): min intersection t+1 masks floor(t/2)... no —
        2q - n = 4t+2 - 3t - 1 = t+1, so b = floor(t/2)."""
        qs = majority(MajorityKind.BFT, t)
        assert qs.min_intersection == t + 1
        assert qs.masking_tolerance == t // 2

    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_qu_family_masks_at_least_t(self, t):
        """(4t+1, 5t+1): min intersection 3t+1 masks >= t Byzantine
        faults — the property Q/U's single-round writes rest on."""
        qs = majority(MajorityKind.QU, t)
        assert qs.min_intersection == 3 * t + 1
        assert qs.masking_tolerance >= t

    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_simple_majority_masks_nothing(self, t):
        """(t+1, 2t+1): overlap 1 — crash tolerance only."""
        qs = majority(MajorityKind.SIMPLE, t)
        assert qs.min_intersection == 1
        assert qs.masking_tolerance == 0

    def test_full_quorum_masks_most(self):
        qs = ThresholdQuorumSystem(7, 7)
        assert qs.min_intersection == 7
        assert qs.masking_tolerance == 3
