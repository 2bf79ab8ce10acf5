"""Unit tests for the synthetic topology builder."""

import pytest

from repro.network.geometry import Point, distance
from repro.network.topology import (
    NetworkTopology,
    Tier,
    TopologyConfig,
    build_topology,
)


class TestTierClassification:
    def test_center_is_urban(self):
        cfg = TopologyConfig()
        assert cfg.tier_of(cfg.center) is Tier.URBAN

    def test_corner_is_rural(self):
        cfg = TopologyConfig()
        assert cfg.tier_of(Point(0, 0)) is Tier.RURAL

    def test_ring_is_suburban(self):
        cfg = TopologyConfig()
        p = Point(cfg.center.x + cfg.urban_radius_km + 1.0, cfg.center.y)
        assert cfg.tier_of(p) is Tier.SUBURBAN

    def test_carriers_per_tier(self):
        cfg = TopologyConfig()
        assert "C5" in cfg.carriers_for(Tier.URBAN)
        assert "C5" not in cfg.carriers_for(Tier.SUBURBAN)
        assert "C4" not in cfg.carriers_for(Tier.RURAL)


class TestBuildTopology:
    def test_structure(self, topology):
        assert len(topology.sites) > 30
        assert topology.n_cells == sum(len(s.cells) for s in topology.sites)

    def test_cell_ids_unique_and_sequential(self, topology):
        ids = sorted(topology.cells)
        assert ids == list(range(1, len(ids) + 1))

    def test_sectors_per_site(self, topology):
        for site in topology.sites:
            assert len(site.sectors) == topology.config.sectors_per_site

    def test_sites_within_region(self, topology):
        cfg = topology.config
        for site in topology.sites:
            assert 0 <= site.location.x <= cfg.width_km
            assert 0 <= site.location.y <= cfg.height_km

    def test_urban_sites_have_c5(self, topology):
        cfg = topology.config
        urban = [s for s in topology.sites if cfg.tier_of(s.location) is Tier.URBAN]
        assert urban
        for site in urban:
            assert any(c.carrier.name == "C5" for c in site.cells)

    def test_deterministic(self):
        t1 = build_topology()
        t2 = build_topology()
        assert [s.location for s in t1.sites] == [s.location for s in t2.sites]


class TestLookups:
    def test_nearest_site_is_nearest(self, topology):
        from repro.network.geometry import distance

        probe = Point(10.0, 10.0)
        site = topology.nearest_site(probe)
        best = min(distance(s.location, probe) for s in topology.sites)
        assert distance(site.location, probe) == pytest.approx(best)

    def test_nearest_sites_rank_by_distance(self, topology):
        probe = Point(10.0, 10.0)
        ranked = sorted(topology.sites, key=lambda s: distance(s.location, probe))
        got = topology.nearest_sites(probe, 5)
        assert [distance(s.location, probe) for s in got] == pytest.approx(
            [distance(s.location, probe) for s in ranked[:5]]
        )
        assert got[0] is topology.nearest_site(probe)

    def test_nearest_sites_caps_k_at_site_count(self, topology):
        few = NetworkTopology(config=topology.config, sites=topology.sites[:3])
        assert len(few.nearest_sites(Point(0.0, 0.0), 10)) == 3
        single = NetworkTopology(config=topology.config, sites=topology.sites[:1])
        assert single.nearest_sites(Point(0.0, 0.0), 5) == [topology.sites[0]]

    def test_no_sites_is_a_clear_error(self):
        with pytest.raises(ValueError, match="at least one site"):
            NetworkTopology(config=TopologyConfig(), sites=[])

    def test_sector_accessor(self, topology):
        site = topology.sites[0]
        sector = topology.sector(site.base_station_id, 1)
        assert sector.base_station_id == site.base_station_id
        assert sector.sector_index == 1

    def test_cell_accessor_raises_unknown(self, topology):
        with pytest.raises(KeyError):
            topology.cell(10**9)

    def test_serving_sector_points_at_device(self, topology):
        site = topology.sites[len(topology.sites) // 2]
        probe = Point(site.location.x + 0.1, site.location.y + 1.0)  # nearly north
        sector = topology.serving_sector(probe)
        assert sector.base_station_id == site.base_station_id


class TestServingCell:
    def test_respects_capabilities(self, topology, rng):
        probe = topology.config.center
        cell = topology.serving_cell(probe, {"C3"}, rng)
        assert cell.carrier.name == "C3"

    def test_none_when_no_capability_overlap(self, topology, rng):
        # Rural sectors deploy C1-C3 only.
        cell = topology.serving_cell(Point(0.0, 0.0), {"C5"}, rng)
        assert cell is None

    def test_weighted_choice_prefers_heavy_carrier(self, topology, rng):
        probe = topology.config.center
        weights = {"C3": 1.0}
        picks = {
            topology.serving_cell(probe, {"C1", "C2", "C3", "C4"}, rng, weights).carrier.name
            for _ in range(20)
        }
        assert picks == {"C3"}

    def test_zero_weights_fall_back_to_uniform(self, topology, rng):
        probe = topology.config.center
        cell = topology.serving_cell(probe, {"C1", "C2"}, rng, {"C9": 1.0})
        assert cell is not None
        assert cell.carrier.name in {"C1", "C2"}

    def test_cells_of_site(self, topology):
        site = topology.sites[0]
        cells = topology.cells_of_site(site.base_station_id)
        assert {c.cell_id for c in cells} == {c.cell_id for c in site.cells}
