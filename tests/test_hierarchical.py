"""Tests for the hierarchical (cluster -> coarse -> refine) search.

Pins: clustering is a pure function of the topology; below the exact
threshold the search *is* the exhaustive one; above it, quality stays
within a regression-bounded factor of exhaustive on topologies whose
structure matches the WAN presets; ``jobs=N`` matches ``jobs=1``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PlacementError
from repro.network.generators import synthetic_wan
from repro.placement import hierarchical
from repro.placement.hierarchical import (
    cluster_sites,
    hierarchical_best_placement,
)
from repro.placement.search import best_placement
from repro.quorums.threshold import ThresholdQuorumSystem


@pytest.fixture(scope="module")
def wan300():
    return synthetic_wan(300)


@pytest.fixture(scope="module")
def system():
    return ThresholdQuorumSystem(5, 3)


class TestClustering:
    def test_partitions_all_sites(self, wan300):
        model = cluster_sites(wan300, 12)
        nodes = np.sort(np.concatenate(model.clusters))
        assert np.array_equal(nodes, np.arange(wan300.n_nodes))

    def test_deterministic(self, wan300):
        a = cluster_sites(wan300, 12)
        b = cluster_sites(wan300, 12)
        assert np.array_equal(a.medoids, b.medoids)
        for ca, cb in zip(a.clusters, b.clusters):
            assert np.array_equal(ca, cb)

    def test_medoids_belong_to_their_clusters(self, wan300):
        model = cluster_sites(wan300, 12)
        for i, medoid in enumerate(model.medoids):
            assert medoid in model.clusters[i]
            assert model.cluster_of(int(medoid)) == i

    def test_separated_clusters_recovered(self, clustered_topology):
        """Two tight groups 100 ms apart must split cleanly in two."""
        model = cluster_sites(clustered_topology, 2)
        assert model.n_clusters == 2
        groups = {frozenset(int(n) for n in c) for c in model.clusters}
        assert groups == {frozenset(range(6)), frozenset(range(6, 12))}

    def test_singleton_clustering(self, clustered_topology):
        model = cluster_sites(clustered_topology, 1)
        assert model.n_clusters == 1
        assert model.clusters[0].size == clustered_topology.n_nodes

    def test_bad_n_clusters(self, clustered_topology):
        with pytest.raises(PlacementError):
            cluster_sites(clustered_topology, 0)
        with pytest.raises(PlacementError):
            cluster_sites(clustered_topology, 13)


class TestExactFallThrough:
    def test_small_topologies_are_exhaustive(self, planetlab, system):
        hier = hierarchical_best_placement(planetlab, system)
        exhaustive = best_placement(planetlab, system)
        assert hier.exhaustive
        assert hier.v0 == exhaustive.v0
        assert hier.avg_network_delay == exhaustive.avg_network_delay
        assert hier.delays_by_candidate == exhaustive.delays_by_candidate
        assert hier.medoids == ()

    def test_threshold_is_inclusive(self, planetlab, system, monkeypatch):
        monkeypatch.setattr(hierarchical, "EXACT_THRESHOLD", planetlab.n_nodes)
        at = hierarchical_best_placement(planetlab, system)
        assert at.exhaustive
        monkeypatch.setattr(
            hierarchical, "EXACT_THRESHOLD", planetlab.n_nodes - 1
        )
        below = hierarchical_best_placement(planetlab, system)
        assert not below.exhaustive


class TestHierarchicalSearch:
    def test_quality_vs_exhaustive(self, wan300, system):
        """Regression bound: within 2% of the true optimum on a WAN-like
        topology (in practice it finds the exact optimum here)."""
        hier = hierarchical_best_placement(wan300, system)
        exhaustive = best_placement(wan300, system)
        assert not hier.exhaustive
        assert (
            hier.avg_network_delay
            <= 1.02 * exhaustive.avg_network_delay
        )

    def test_evaluates_far_fewer_candidates(self, wan300, system):
        hier = hierarchical_best_placement(wan300, system)
        assert hier.n_candidates < wan300.n_nodes / 2

    def test_deterministic(self, wan300, system):
        a = hierarchical_best_placement(wan300, system)
        b = hierarchical_best_placement(wan300, system)
        assert a.v0 == b.v0
        assert a.avg_network_delay == b.avg_network_delay
        assert a.medoids == b.medoids
        assert a.refined_clusters == b.refined_clusters
        assert a.delays_by_candidate == b.delays_by_candidate

    def test_parallel_matches_serial(self, wan300, system):
        serial = hierarchical_best_placement(wan300, system)
        parallel = hierarchical_best_placement(wan300, system, jobs=2)
        assert serial.v0 == parallel.v0
        assert serial.avg_network_delay == parallel.avg_network_delay
        assert serial.delays_by_candidate == parallel.delays_by_candidate

    def test_never_worse_than_coarse_medoids(
        self, wan300, system, monkeypatch
    ):
        """Medoids stay in the refined pool, so the result can't be
        worse than the best medoid-only placement."""
        monkeypatch.setattr(hierarchical, "REFINE_TOP", 1)
        hier = hierarchical_best_placement(wan300, system)
        coarse = best_placement(
            wan300, system, candidates=np.asarray(hier.medoids)
        )
        assert hier.avg_network_delay <= coarse.avg_network_delay

    def test_refine_top_widens_the_pool(self, wan300, system, monkeypatch):
        monkeypatch.setattr(hierarchical, "REFINE_TOP", 1)
        narrow = hierarchical_best_placement(wan300, system)
        monkeypatch.setattr(hierarchical, "REFINE_TOP", 4)
        wide = hierarchical_best_placement(wan300, system)
        assert wide.n_candidates > narrow.n_candidates
        assert wide.avg_network_delay <= narrow.avg_network_delay
