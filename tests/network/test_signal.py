"""Tests for the signal propagation model."""

import pytest

from repro.network.geometry import Point
from repro.network.signal import (
    NOISE_FLOOR_DBM,
    PathLossModel,
    SignalMap,
    antenna_gain_db,
)
from repro.network.topology import NetworkTopology


class TestPathLoss:
    def test_increases_with_distance(self):
        model = PathLossModel()
        assert model.loss_db(2.0, 1900) > model.loss_db(1.0, 1900)

    def test_increases_with_frequency(self):
        model = PathLossModel()
        assert model.loss_db(1.0, 2300) > model.loss_db(1.0, 700)

    def test_slope_matches_exponent(self):
        model = PathLossModel(exponent=3.5)
        per_decade = model.loss_db(10.0, 1000) - model.loss_db(1.0, 1000)
        assert per_decade == pytest.approx(35.0)

    def test_min_distance_clamps(self):
        model = PathLossModel(min_distance_km=0.01)
        assert model.loss_db(0.0, 1000) == model.loss_db(0.01, 1000)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            PathLossModel().loss_db(1.0, 0)


class TestAntennaGain:
    def test_max_at_boresight(self):
        assert antenna_gain_db(0.0, 0.0) == 15.0

    def test_decreases_off_boresight(self):
        g0 = antenna_gain_db(0.0, 0.0)
        g30 = antenna_gain_db(0.0, 30.0)
        g60 = antenna_gain_db(0.0, 60.0)
        assert g0 > g30 > g60

    def test_back_lobe_floor(self):
        assert antenna_gain_db(0.0, 180.0) == pytest.approx(15.0 - 25.0)
        assert antenna_gain_db(0.0, 120.0) == antenna_gain_db(0.0, 240.0)

    def test_wraps_around(self):
        assert antenna_gain_db(350.0, 10.0) == pytest.approx(
            antenna_gain_db(0.0, 20.0)
        )


class TestSignalMap:
    @pytest.fixture(scope="class")
    def signal(self, topology):
        return SignalMap(topology)

    def test_rsrp_decays_with_distance(self, signal, topology):
        site = topology.sites[len(topology.sites) // 2]
        cell = site.sectors[0].cells[0]
        # Points along the sector boresight (azimuth 0 = +y).
        near = Point(site.location.x, site.location.y + 0.5)
        far = Point(site.location.x, site.location.y + 3.0)
        assert signal.rsrp_dbm(cell, near) > signal.rsrp_dbm(cell, far)

    def test_best_server_is_nearby(self, signal, topology):
        from repro.network.geometry import distance

        probe = topology.config.center
        best, rsrp = signal.best_server(probe)
        nearest = topology.nearest_site(probe)
        assert distance(best.location, probe) <= 3 * distance(
            nearest.location, probe
        ) + 1.0

    def test_best_server_respects_capabilities(self, signal, topology):
        probe = topology.config.center
        best, _ = signal.best_server(probe, {"C1"})
        assert best.carrier.name == "C1"

    def test_candidates_sorted(self, signal, topology):
        ranked = signal.candidates(topology.config.center)
        rsrps = [r for _, r in ranked]
        assert rsrps == sorted(rsrps, reverse=True)

    def test_candidates_on_a_single_site_topology(self, topology):
        site = topology.sites[0]
        single = SignalMap(NetworkTopology(config=topology.config, sites=[site]))
        ranked = single.candidates(topology.config.center, n_sites=5)
        assert sorted(c.cell_id for c, _ in ranked) == sorted(
            c.cell_id for c in site.cells
        )

    def test_low_band_reaches_further(self, signal, topology):
        # At long range from a site, C2 (700 MHz) beats C3 (1900 MHz) of the
        # same sector by the frequency term.
        site = topology.sites[0]
        sector = site.sectors[0]
        c2 = sector.cell_on("C2")
        c3 = sector.cell_on("C3")
        if c2 is None or c3 is None:
            pytest.skip("sector lacks both carriers")
        probe = Point(site.location.x, site.location.y + 5.0)
        assert signal.rsrp_dbm(c2, probe) > signal.rsrp_dbm(c3, probe)

    def test_sinr_decreases_with_neighbour_load(self, signal, topology):
        probe = topology.config.center
        best, _ = signal.best_server(probe)
        quiet = signal.sinr_db(best, probe, neighbour_load=0.1)
        loaded = signal.sinr_db(best, probe, neighbour_load=0.9)
        assert quiet > loaded

    def test_sinr_bounded_by_noise(self, signal, topology):
        probe = topology.config.center
        best, rsrp = signal.best_server(probe)
        no_interference = signal.sinr_db(best, probe, neighbour_load=0.0)
        assert no_interference == pytest.approx(rsrp - NOISE_FLOOR_DBM, abs=1.0)

    def test_sinr_validates_load(self, signal, topology):
        best, _ = signal.best_server(topology.config.center)
        with pytest.raises(ValueError):
            signal.sinr_db(best, topology.config.center, neighbour_load=1.5)
