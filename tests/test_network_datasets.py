"""Tests for the bundled Planetlab-50 / daxlist-161 stand-ins."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.network.datasets import (
    available_topologies,
    load_topology,
    planetlab_50,
    topology_sites,
)

from oracles import validate_metric


class TestPlanetlab50:
    def test_size(self, planetlab):
        assert planetlab.n_nodes == 50

    def test_deterministic_default(self, planetlab):
        again = planetlab_50()
        assert np.array_equal(planetlab.rtt, again.rtt)

    def test_is_metric(self, planetlab):
        validate_metric(planetlab)

    def test_median_scale_matches_paper(self, planetlab):
        """Average delay to the median ~60-70 ms (Figure 6.3's singleton)."""
        med = planetlab.median()
        avg = planetlab.mean_distances()[med]
        assert 50.0 <= avg <= 80.0

    def test_has_intercontinental_distances(self, planetlab):
        assert planetlab.rtt.max() > 150.0


class TestDaxlist161:
    def test_size(self, daxlist):
        assert daxlist.n_nodes == 161

    def test_is_metric(self, daxlist):
        validate_metric(daxlist)

    def test_denser_than_planetlab(self, planetlab, daxlist):
        """Web servers cluster more tightly: smaller median average."""
        p = planetlab.mean_distances()[planetlab.median()]
        d = daxlist.mean_distances()[daxlist.median()]
        assert d < p

    def test_median_scale_matches_paper(self, daxlist):
        """Grid closest delays on daxlist are ~30 ms in Figures 6.4-6.5."""
        avg = daxlist.mean_distances()[daxlist.median()]
        assert 20.0 <= avg <= 45.0


class TestRegistry:
    def test_available(self):
        assert set(available_topologies()) == {
            "planetlab-50",
            "daxlist-161",
            "wan-1000",
            "wan-2000",
            "wan-5000",
        }

    def test_load_by_name(self):
        assert load_topology("planetlab-50").n_nodes == 50
        assert load_topology("daxlist-161").n_nodes == 161

    def test_unknown_name(self):
        with pytest.raises(TopologyError):
            load_topology("nope")

    def test_site_counts_without_generation(self):
        """Site counts are registry data, not generated topologies."""
        assert topology_sites("planetlab-50") == 50
        assert topology_sites("wan-2000") == 2000
        assert topology_sites("wan-5000") == 5000
        with pytest.raises(TopologyError):
            topology_sites("nope")

    def test_wan_preset_loads(self):
        wan = load_topology("wan-1000")
        assert wan.n_nodes == 1000
        assert wan.rtt.max() > 150.0  # intercontinental structure survives
