"""Tests for synthetic topology generation and geographic helpers."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.network.datasets import daxlist_161, planetlab_50
from repro.network.generators import (
    _BLOCK_ROWS,
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

from oracles import (
    great_circle_km,
    validate_metric,
    whole_matrix_cluster_topology,
    whole_matrix_great_circle_km,
)


TWO_CLUSTERS = [
    ClusterSpec("east", 40.0, -74.0, 1.0, 0.5),
    ClusterSpec("west", 37.0, -122.0, 1.0, 0.5),
]


def _distance(lat1, lon1, lat2, lon2):
    """One pair's entry of the pairwise matrix."""
    lats, lons = np.array([lat1, lat2]), np.array([lon1, lon2])
    return pairwise_great_circle_km(lats, lons, lats, lons)[0, 1]


#: Latitudes and longitudes as the generator produces them: latitudes
#: clipped off the poles, longitudes wrapped into [-180, 180).
_sites = st.lists(
    st.tuples(
        st.floats(min_value=-89.9, max_value=89.9),
        st.floats(min_value=-180.0, max_value=180.0, exclude_max=True),
    ),
    min_size=1,
    max_size=40,
)


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
        matrix = pairwise_great_circle_km(lats, lons, lats, lons)
        for i in range(3):
            for j in range(3):
                expected = great_circle_km(
                    lats[i], lons[i], lats[j], lons[j]
                )
                assert matrix[i, j] == pytest.approx(expected, rel=1e-9)

    @given(_sites, st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_block_equals_the_whole_matrix_block(self, sites, data):
        """The generator's kernel calls are blocks of the square matrix,
        bit for bit, wherever they are cut."""
        lats, lons = (np.array(axis) for axis in zip(*sites))
        n = len(sites)
        r0 = data.draw(st.integers(0, n - 1))
        r1 = data.draw(st.integers(r0 + 1, n))
        c0 = data.draw(st.integers(0, n - 1))
        block = pairwise_great_circle_km(
            lats[r0:r1], lons[r0:r1], lats[c0:], lons[c0:]
        )
        whole = whole_matrix_great_circle_km(lats, lons)
        assert np.array_equal(block, whole[r0:r1, c0:])

    @given(_sites)
    @settings(max_examples=60, deadline=None)
    def test_whole_matrix_is_exactly_symmetric(self, sites):
        """The generator evaluates only the upper triangle and mirrors
        it; that is bit-identical because (i, j) and (j, i) round the
        same way."""
        lats, lons = (np.array(axis) for axis in zip(*sites))
        whole = whole_matrix_great_circle_km(lats, lons)
        assert np.array_equal(whole, whole.T)

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

    @pytest.mark.parametrize("spread", [np.nan, np.inf])
    def test_non_finite_spread_rejected(self, spread):
        """A NaN or infinite spread used to turn every position, and so
        every RTT, into NaN."""
        with pytest.raises(TopologyError, match=f"spread.*got {spread}"):
            ClusterSpec("x", 0.0, 0.0, spread, 1.0)

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, weight):
        """NaN or infinite weights used to fail inside the apportionment
        with a raw ValueError."""
        with pytest.raises(TopologyError, match=f"weight.*got {weight}"):
            ClusterSpec("x", 0.0, 0.0, 1.0, weight)


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

    @pytest.mark.parametrize("jitter", [-1.0, np.nan, np.inf])
    def test_bad_jitter_rejected(self, jitter):
        """A negative scale used to leak numpy's ``scale < 0``; NaN and
        infinity used to reach the matrix."""
        with pytest.raises(TopologyError, match=f"jitter.*got {jitter}"):
            generate_cluster_topology(5, TWO_CLUSTERS, seed=1, jitter_ms=jitter)

    @pytest.mark.parametrize(
        "bounds", [(1.3, np.inf), (np.inf, np.inf), (1.3, np.nan)]
    )
    def test_non_finite_inflation_rejected(self, bounds):
        """An infinite bound used to leak numpy's OverflowError."""
        with pytest.raises(TopologyError, match="inflation.*got"):
            generate_cluster_topology(
                5, TWO_CLUSTERS, seed=1, inflation_range=bounds
            )

    @pytest.mark.parametrize(
        "bounds", [(0.3, np.inf), (np.inf, np.inf), (np.nan, 1.0)]
    )
    def test_non_finite_access_range_rejected(self, bounds):
        with pytest.raises(TopologyError, match="access.*got"):
            generate_cluster_topology(
                5, TWO_CLUSTERS, seed=1, access_delay_ms_range=bounds
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

    def test_overflowing_weights_rejected(self):
        """Finite weights whose shares overflow used to fail with a raw
        ValueError from ``int(nan)``."""
        huge = [ClusterSpec(f"c{i}", 0.0, 0.0, 1.0, 1e308) for i in range(2)]
        with pytest.raises(TopologyError, match="overflow"):
            _allocate_sites(huge, 10)

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


#: SHA-256 of ``Topology.rtt.tobytes()`` as the whole-matrix generator
#: built them (x86-64, numpy 2.4). Every cache key fingerprints these
#: bytes, so the row-block generator must reproduce them exactly.
_DIGESTS = {
    "synthetic_wan(300)": (
        lambda: synthetic_wan(300),
        "bbe4252be10d07fa7112496fa916879ac5af5636fbe2b8e77321be7715ccac36",
    ),
    "synthetic_wan(2000)": (
        lambda: synthetic_wan(2000),
        "0091b114e4b12f2ebd20f937683316d4bb215ee2b3ad9e74af49548980b8e158",
    ),
    "planetlab_50()": (
        planetlab_50,
        "1a71319312b80e04b9c872d3b51f1614c9a4b23803e46b4541ad498f8bc6c867",
    ),
    "daxlist_161()": (
        daxlist_161,
        "d598835aff6d0e432e0cfba0f47b57f3600c40b3f4d09a2228e77d85564251e4",
    ),
}


@st.composite
def _generator_inputs(draw):
    """Keyword arguments of ``generate_cluster_topology`` around the
    block edges: sizes one short of, at and one past one and two blocks."""
    n_sites = draw(
        st.sampled_from(
            [
                1,
                _BLOCK_ROWS - 1,
                _BLOCK_ROWS,
                _BLOCK_ROWS + 1,
                2 * _BLOCK_ROWS - 1,
                2 * _BLOCK_ROWS + 1,
            ]
        )
    )
    clusters = [
        ClusterSpec(
            f"c{i}",
            draw(st.floats(-90.0, 90.0)),
            draw(st.floats(-180.0, 180.0)),
            draw(st.floats(0.0, 30.0)),
            draw(st.floats(0.01, 10.0)),
        )
        for i in range(draw(st.integers(1, min(4, n_sites))))
    ]
    lo = draw(st.floats(1.0, 3.0))
    alo = draw(st.floats(0.0, 5.0))
    return {
        "n_sites": n_sites,
        "clusters": clusters,
        "seed": draw(st.integers(0, 2**32 - 1)),
        "inflation_range": (lo, lo + draw(st.floats(0.0, 2.0))),
        "access_delay_ms_range": (alo, alo + draw(st.floats(0.0, 5.0))),
        "jitter_ms": draw(st.floats(0.0, 3.0)),
        "metric_closure": n_sites <= 200 and draw(st.booleans()),
    }


class TestRowBlockGeneration:
    @pytest.mark.parametrize("name", sorted(_DIGESTS))
    def test_digest_pinned(self, name):
        build, digest = _DIGESTS[name]
        assert hashlib.sha256(build().rtt.tobytes()).hexdigest() == digest

    @given(_generator_inputs())
    @settings(max_examples=40, deadline=None)
    def test_equals_the_whole_matrix_oracle(self, kwargs):
        built = generate_cluster_topology(**kwargs)
        oracle = whole_matrix_cluster_topology(**kwargs)
        assert built.rtt.tobytes() == oracle.rtt.tobytes()
        assert built.names == oracle.names
        assert np.array_equal(built.capacities, oracle.capacities)
        assert not built.rtt.flags.writeable

    def test_peak_memory_is_one_matrix_plus_blocks(self):
        """The whole-matrix generator peaked at 6.0 matrices here."""
        n = 2000
        tracemalloc.start()
        try:
            synthetic_wan(n)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * n * n * 8
