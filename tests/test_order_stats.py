"""Tests for exact subset-maximum order statistics.

These formulas replace enumeration of C(n, q) quorums, so they are
cross-validated against brute-force enumeration on small instances: the
expected maximum is the pmf of :func:`max_order_statistic_pmf` dotted with
the sorted values.
"""

import itertools

import numpy as np
import pytest

from repro.quorums.order_stats import max_order_statistic_pmf

from oracles import expected_max_of_random_subset


def brute_force_expected_max(values, q):
    values = list(values)
    subsets = list(itertools.combinations(values, q))
    return sum(max(s) for s in subsets) / len(subsets)


class TestPmf:
    def test_sums_to_one(self):
        for n, q in [(5, 3), (10, 1), (10, 10), (21, 17)]:
            pmf = max_order_statistic_pmf(n, q)
            assert pmf.sum() == pytest.approx(1.0)

    def test_zero_below_q(self):
        pmf = max_order_statistic_pmf(8, 5)
        assert np.all(pmf[:4] == 0.0)
        assert np.all(pmf[4:] > 0.0)

    def test_q_equals_n_is_point_mass(self):
        pmf = max_order_statistic_pmf(6, 6)
        assert pmf[-1] == pytest.approx(1.0)
        assert pmf[:-1].sum() == 0.0

    def test_q_one_is_uniform(self):
        pmf = max_order_statistic_pmf(7, 1)
        assert np.allclose(pmf, 1.0 / 7.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            max_order_statistic_pmf(5, 0)
        with pytest.raises(ValueError):
            max_order_statistic_pmf(5, 6)


class TestExpectedMax:
    @pytest.mark.parametrize("n,q", [(5, 3), (6, 4), (7, 2), (8, 5)])
    def test_matches_brute_force(self, n, q):
        rng = np.random.default_rng(n * 10 + q)
        values = rng.uniform(0, 100, size=n)
        exact = expected_max_of_random_subset(values, q)
        brute = brute_force_expected_max(values, q)
        assert exact == pytest.approx(brute, rel=1e-12)

    def test_handles_ties(self):
        values = np.array([5.0, 5.0, 5.0, 10.0])
        exact = expected_max_of_random_subset(values, 2)
        brute = brute_force_expected_max(values, 2)
        assert exact == pytest.approx(brute)

    def test_unsorted_input(self):
        values = np.array([30.0, 10.0, 20.0])
        assert expected_max_of_random_subset(values, 2) == pytest.approx(
            brute_force_expected_max(values, 2)
        )

    def test_full_subset_is_max(self):
        values = np.array([1.0, 9.0, 4.0])
        assert expected_max_of_random_subset(values, 3) == 9.0

    def test_monotone_in_q(self):
        values = np.random.default_rng(3).uniform(0, 50, size=9)
        e = [
            expected_max_of_random_subset(values, q) for q in range(1, 10)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(e, e[1:]))

