"""Tests for synthetic topology generation and geographic helpers."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.network.generators import (
    MIN_RTT_MS,
    WAN_CLUSTERS,
    ClusterSpec,
    _allocate_sites,
    generate_cluster_topology,
    synthetic_wan,
)
from repro.network.geo import (
    EARTH_RADIUS_KM,
    pairwise_great_circle_km,
    propagation_rtt_ms,
)

from oracles import great_circle_km, validate_metric


TWO_CLUSTERS = [
    ClusterSpec("east", 40.0, -74.0, 1.0, 0.5),
    ClusterSpec("west", 37.0, -122.0, 1.0, 0.5),
]


def _distance(lat1, lon1, lat2, lon2):
    """One pair's entry of the pairwise matrix."""
    return pairwise_great_circle_km(
        np.array([lat1, lat2]), np.array([lon1, lon2])
    )[0, 1]


class TestGeo:
    def test_zero_distance(self):
        assert _distance(10.0, 20.0, 10.0, 20.0) == 0.0

    def test_symmetric(self):
        a = _distance(40.0, -74.0, 51.5, 0.0)
        b = _distance(51.5, 0.0, 40.0, -74.0)
        assert a == pytest.approx(b)

    def test_antipodal_half_circumference(self):
        d = _distance(0.0, 0.0, 0.0, 180.0)
        assert d == pytest.approx(np.pi * EARTH_RADIUS_KM, rel=1e-6)

    def test_known_distance_ny_london(self):
        # New York <-> London is about 5570 km.
        d = _distance(40.71, -74.0, 51.5, -0.13)
        assert 5300 < d < 5800

    def test_pairwise_matches_scalar(self):
        lats = np.array([40.0, 51.5, -33.9])
        lons = np.array([-74.0, 0.0, 151.2])
        matrix = pairwise_great_circle_km(lats, lons)
        for i in range(3):
            for j in range(3):
                expected = great_circle_km(
                    lats[i], lons[i], lats[j], lons[j]
                )
                assert matrix[i, j] == pytest.approx(expected, rel=1e-9)

    def test_propagation_rtt(self):
        # 1000 km geodesic -> 2 * 1000/200 = 10 ms RTT.
        assert propagation_rtt_ms(1000.0) == pytest.approx(10.0)


class TestClusterSpec:
    def test_invalid_latitude(self):
        with pytest.raises(TopologyError):
            ClusterSpec("x", 91.0, 0.0, 1.0, 1.0)

    def test_invalid_longitude(self):
        with pytest.raises(TopologyError):
            ClusterSpec("x", 0.0, 200.0, 1.0, 1.0)

    def test_negative_spread(self):
        with pytest.raises(TopologyError):
            ClusterSpec("x", 0.0, 0.0, -1.0, 1.0)

    def test_nonpositive_weight(self):
        with pytest.raises(TopologyError):
            ClusterSpec("x", 0.0, 0.0, 1.0, 0.0)


class TestGenerator:
    def test_deterministic_for_seed(self):
        a = generate_cluster_topology(20, TWO_CLUSTERS, seed=5)
        b = generate_cluster_topology(20, TWO_CLUSTERS, seed=5)
        assert np.array_equal(a.rtt, b.rtt)
        assert a.names == b.names

    def test_different_seeds_differ(self):
        a = generate_cluster_topology(20, TWO_CLUSTERS, seed=5)
        b = generate_cluster_topology(20, TWO_CLUSTERS, seed=6)
        assert not np.array_equal(a.rtt, b.rtt)

    def test_site_count(self):
        topo = generate_cluster_topology(33, TWO_CLUSTERS, seed=1)
        assert topo.n_nodes == 33

    def test_names_encode_clusters(self):
        topo = generate_cluster_topology(10, TWO_CLUSTERS, seed=1)
        assert any(name.startswith("east-") for name in topo.names)
        assert any(name.startswith("west-") for name in topo.names)

    def test_metric_property_holds(self):
        topo = generate_cluster_topology(25, TWO_CLUSTERS, seed=2)
        validate_metric(topo)

    def test_intercluster_far_exceeds_intracluster(self):
        topo = generate_cluster_topology(30, TWO_CLUSTERS, seed=3)
        east = [i for i, n in enumerate(topo.names) if n.startswith("east")]
        west = [i for i, n in enumerate(topo.names) if n.startswith("west")]
        intra = topo.rtt[np.ix_(east, east)]
        inter = topo.rtt[np.ix_(east, west)]
        intra_mean = intra[intra > 0].mean()
        assert inter.mean() > 3 * intra_mean

    def test_every_cluster_gets_a_site(self):
        clusters = [
            ClusterSpec("big", 0.0, 0.0, 1.0, 100.0),
            ClusterSpec("tiny", 50.0, 50.0, 1.0, 0.001),
        ]
        topo = generate_cluster_topology(10, clusters, seed=4)
        assert any(n.startswith("tiny-") for n in topo.names)

    def test_min_rtt_clamp(self):
        """Co-located sites with no access delay or jitter sit at the
        clamp, never at zero."""
        topo = generate_cluster_topology(
            15,
            [ClusterSpec("one", 0.0, 0.0, 0.0, 1.0)],
            seed=9,
            jitter_ms=0.0,
            access_delay_ms_range=(0.0, 0.0),
        )
        off_diag = topo.rtt[~np.eye(15, dtype=bool)]
        assert np.all(off_diag == MIN_RTT_MS)

    def test_bad_inflation_rejected(self):
        with pytest.raises(TopologyError):
            generate_cluster_topology(
                5, TWO_CLUSTERS, seed=1, inflation_range=(0.5, 2.0)
            )

    def test_bad_access_range_rejected(self):
        with pytest.raises(TopologyError):
            generate_cluster_topology(
                5, TWO_CLUSTERS, seed=1, access_delay_ms_range=(2.0, 1.0)
            )

    def test_no_clusters_rejected(self):
        with pytest.raises(TopologyError):
            generate_cluster_topology(5, [], seed=1)

    def test_zero_sites_rejected(self):
        with pytest.raises(TopologyError):
            generate_cluster_topology(0, TWO_CLUSTERS, seed=1)


class TestAllocateSites:
    def test_fewer_sites_than_clusters_raises(self):
        """Regression: n_sites < len(clusters) used to underflow the
        donor-steal loop instead of failing with a clear message."""
        with pytest.raises(TopologyError, match="cannot allocate"):
            _allocate_sites(WAN_CLUSTERS, len(WAN_CLUSTERS) - 1)
        # The boundary is fine: exactly one site per cluster.
        counts = _allocate_sites(WAN_CLUSTERS, len(WAN_CLUSTERS))
        assert counts == [1] * len(WAN_CLUSTERS)

    def test_remainder_ties_break_toward_lower_index(self):
        """Equal weights, sites not divisible by clusters: the stable
        sort must hand the extra sites to the lowest-index clusters."""
        clusters = [
            ClusterSpec(f"c{i}", 0.0, float(i), 1.0, 1.0) for i in range(4)
        ]
        # 6 sites over 4 equal clusters: raw 1.5 each, remainders all
        # equal — clusters 0 and 1 get the two extras, deterministically.
        assert _allocate_sites(clusters, 6) == [2, 2, 1, 1]
        assert _allocate_sites(clusters, 7) == [2, 2, 2, 1]

    def test_counts_sum_and_cover(self):
        counts = _allocate_sites(WAN_CLUSTERS, 137)
        assert sum(counts) == 137
        assert min(counts) >= 1


class TestSyntheticWan:
    def test_deterministic_per_size(self):
        a = synthetic_wan(250)
        b = synthetic_wan(250)
        assert np.array_equal(a.rtt, b.rtt)
        assert a.names == b.names

    def test_skips_metric_closure(self):
        """The presets must not pay the O(n^3) closure; the raw cluster
        model is near-metric but not exactly closed."""
        wan = synthetic_wan(250)
        assert wan.n_nodes == 250
        # Symmetric with a zero diagonal even without closure.
        assert np.array_equal(wan.rtt, wan.rtt.T)
        assert np.all(np.diag(wan.rtt) == 0.0)

    def test_spans_all_wan_metros(self):
        wan = synthetic_wan(300)
        prefixes = {name.rsplit("-", 1)[0] for name in wan.names}
        assert prefixes == {c.name for c in WAN_CLUSTERS}
