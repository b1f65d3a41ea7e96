"""Charger model, registry, catalog generation, and solar curve tests."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chargers import plugshare
from repro.chargers.charger import (
    RATE_CLASSES_KW,
    Charger,
    PlugType,
    RenewableSource,
    Vehicle,
)
from repro.chargers.plugshare import CatalogSpec, generate_catalog
from repro.chargers.registry import ChargerRegistry
from repro.chargers.solar import (
    SAMPLES_PER_HOUR,
    SolarProfile,
    SolarSeries,
    generate_solar_series,
)
from repro.network.builders import NetworkSpec, build_city_network, build_grid_network
from repro.spatial.geometry import Point
from repro.trajectories.datasets import PROFILES

#: The four bench workloads' (network, catalog) pairs; dense-pool runs on
#: the T-drive profile itself.
BENCH_CATALOGS = {
    "bench-dense-pool": (PROFILES["tdrive"].network, PROFILES["tdrive"].catalog),
    "bench-big-net-adapt": (
        NetworkSpec(width_km=70.0, height_km=70.0, block_km=1.0),
        CatalogSpec(charger_count=1000, hotspots=0, seed=205),
    ),
    "bench-commute-incidents": (
        PROFILES["california"].network,
        replace(PROFILES["california"].catalog, hotspot_share=0.0),
    ),
    "bench-serve-gateway": (
        PROFILES["oldenburg"].network,
        replace(PROFILES["oldenburg"].catalog, hotspot_share=0.0),
    ),
}


def _charger(cid=0, x=0.0, y=0.0, rate=11.0, **kw) -> Charger:
    return Charger(charger_id=cid, point=Point(x, y), node_id=0, rate_kw=rate, **kw)


class TestCharger:
    def test_validation(self):
        with pytest.raises(ValueError):
            _charger(rate=0.0)
        with pytest.raises(ValueError):
            _charger(plugs=0)
        with pytest.raises(ValueError):
            _charger(solar_capacity_kw=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        # NaN slips past every ``<= 0`` check, so each field is named here.
        for fields in ({"x": bad}, {"y": bad}, {"rate": bad}, {"solar_capacity_kw": bad}):
            with pytest.raises(ValueError, match="finite"):
                _charger(**fields)

    def test_dc_fast_detection(self):
        assert _charger(plug_type=PlugType.CCS, rate=150.0).is_dc_fast
        assert not _charger(plug_type=PlugType.AC_TYPE2).is_dc_fast

    def test_deliverable_capped_by_vehicle(self):
        ac = _charger(rate=22.0)
        assert ac.deliverable_kw(vehicle_max_ac_kw=11.0, vehicle_max_dc_kw=100.0) == 11.0
        dc = _charger(plug_type=PlugType.CCS, rate=150.0)
        assert dc.deliverable_kw(vehicle_max_ac_kw=11.0, vehicle_max_dc_kw=100.0) == 100.0

    def test_deliverable_capped_by_charger(self):
        slow = _charger(rate=3.7)
        assert slow.deliverable_kw(11.0, 100.0) == 3.7


class TestVehicle:
    def test_headroom_and_range(self):
        ev = Vehicle(vehicle_id=1, battery_kwh=60.0, state_of_charge=0.5,
                     consumption_kwh_per_km=0.15)
        assert ev.headroom_kwh == pytest.approx(30.0)
        assert ev.range_km == pytest.approx(200.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Vehicle(vehicle_id=1, state_of_charge=1.5)
        with pytest.raises(ValueError):
            Vehicle(vehicle_id=1, battery_kwh=0.0)
        with pytest.raises(ValueError):
            Vehicle(vehicle_id=1, consumption_kwh_per_km=0.0)


class TestSolarProfile:
    PROFILE = SolarProfile(capacity_kw=20.0, sunrise_h=6.0, sunset_h=20.0)

    def test_zero_at_night(self):
        assert self.PROFILE.clear_sky_kw(3.0) == 0.0
        assert self.PROFILE.clear_sky_kw(22.0) == 0.0

    def test_zero_at_sunrise_and_sunset(self):
        assert self.PROFILE.clear_sky_kw(6.0) == 0.0
        assert self.PROFILE.clear_sky_kw(20.0) == 0.0

    def test_peak_at_solar_noon(self):
        noon = (6.0 + 20.0) / 2
        assert self.PROFILE.clear_sky_kw(noon) == pytest.approx(20.0 * 0.85)
        assert self.PROFILE.clear_sky_kw(noon) >= self.PROFILE.clear_sky_kw(10.0)

    def test_wraps_across_days(self):
        assert self.PROFILE.clear_sky_kw(13.0) == pytest.approx(
            self.PROFILE.clear_sky_kw(13.0 + 24.0)
        )

    def test_daily_energy_positive_and_bounded(self):
        energy = self.PROFILE.daily_energy_kwh()
        assert 0 < energy < 20.0 * 14.0  # can't exceed capacity x daylight

    def test_validation(self):
        with pytest.raises(ValueError):
            SolarProfile(capacity_kw=-1.0)
        with pytest.raises(ValueError):
            SolarProfile(capacity_kw=1.0, sunrise_h=20.0, sunset_h=6.0)
        with pytest.raises(ValueError):
            SolarProfile(capacity_kw=1.0, peak_fraction=0.0)

    @given(st.floats(min_value=0.0, max_value=48.0))
    def test_production_never_exceeds_capacity(self, t):
        assert 0.0 <= self.PROFILE.clear_sky_kw(t) <= 20.0


class TestSolarSeries:
    def test_generate_length(self):
        series = generate_solar_series(SolarProfile(10.0), days=2)
        assert len(series.values_kw) == 2 * 24 * SAMPLES_PER_HOUR

    def test_at_and_bounds(self):
        series = generate_solar_series(SolarProfile(10.0), days=1, seed=4)
        assert series.at(-1.0) == 0.0
        assert series.at(25.0) == 0.0
        assert series.at(12.0) > 0.0

    def test_window_max_ge_samples(self):
        series = generate_solar_series(SolarProfile(10.0), days=1, seed=4)
        peak = series.window_max(10.0, 14.0)
        assert peak >= series.at(12.0) - 1e-9

    def test_window_energy_additive(self):
        series = generate_solar_series(SolarProfile(10.0), days=1, seed=4)
        whole = series.window_energy_kwh(0.0, 24.0)
        split = series.window_energy_kwh(0.0, 12.0) + series.window_energy_kwh(12.0, 24.0)
        assert whole == pytest.approx(split)

    def test_cloud_attenuation_scales_down(self):
        clear = generate_solar_series(SolarProfile(10.0), noise_std=0.0, seed=1)
        cloudy = generate_solar_series(
            SolarProfile(10.0), cloud_attenuation=0.5, noise_std=0.0, seed=1
        )
        assert cloudy.window_energy_kwh(0, 24) == pytest.approx(
            0.5 * clear.window_energy_kwh(0, 24)
        )

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            SolarSeries(start_h=0.0, values_kw=(1.0, -0.1))

    def test_empty_window(self):
        series = generate_solar_series(SolarProfile(10.0))
        assert series.window_max(14.0, 14.0) == 0.0
        assert series.window_energy_kwh(14.0, 12.0) == 0.0


class TestRegistry:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ChargerRegistry([_charger(cid=1), _charger(cid=1, x=1.0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ChargerRegistry([])

    def test_lookup(self, small_registry):
        charger = next(iter(small_registry))
        assert small_registry.get(charger.charger_id) is charger
        assert charger.charger_id in small_registry

    def test_all_returns_copy(self, small_registry):
        listing = small_registry.all()
        listing.pop()
        assert len(small_registry.all()) == len(small_registry)

    def test_nearest_matches_exhaustive(self, small_registry):
        probe = Point(5.0, 5.0)
        via_index = [c.charger_id for c in small_registry.nearest(probe, 5)]
        exhaustive = sorted(
            small_registry.all(), key=lambda c: c.point.squared_distance_to(probe)
        )
        assert via_index == [c.charger_id for c in exhaustive[:5]]

    def test_within_radius_sorted_and_complete(self, small_registry):
        probe = Point(8.0, 6.0)
        hits = small_registry.within_radius(probe, 4.0)
        dists = [c.point.distance_to(probe) for c in hits]
        assert dists == sorted(dists)
        assert all(d <= 4.0 for d in dists)
        want = {c.charger_id for c in small_registry.all()
                if c.point.distance_to(probe) <= 4.0}
        assert {c.charger_id for c in hits} == want

    def test_max_rate(self, small_registry):
        assert small_registry.max_rate_kw() == max(
            c.rate_kw for c in small_registry.all()
        )


class TestCatalogGeneration:
    def test_deterministic(self, small_network):
        spec = CatalogSpec(charger_count=30, seed=5)
        a = generate_catalog(small_network, spec)
        b = generate_catalog(small_network, spec)
        assert [c.point for c in a.all()] == [c.point for c in b.all()]

    def test_count_and_ids(self, small_registry):
        assert len(small_registry) == 60
        assert sorted(c.charger_id for c in small_registry) == list(range(60))

    def test_chargers_anchor_to_network_nodes(self, small_network, small_registry):
        node_ids = set(small_network.node_ids())
        for charger in small_registry:
            assert charger.node_id in node_ids
            # The recorded node is close to the charger point.
            assert charger.point.distance_to(
                small_network.node(charger.node_id).point
            ) < 2.0

    def test_rate_classes_valid(self, small_registry):
        for charger in small_registry:
            assert charger.rate_kw in RATE_CLASSES_KW[charger.plug_type]

    def test_dc_share_roughly_respected(self, small_network):
        registry = generate_catalog(
            small_network, CatalogSpec(charger_count=400, dc_share=0.2, seed=8)
        )
        dc = sum(1 for c in registry if c.is_dc_fast)
        assert 0.10 < dc / len(registry) < 0.32

    def test_renewable_sources_mixed(self, small_network):
        registry = generate_catalog(
            small_network, CatalogSpec(charger_count=200, net_metered_share=0.4, seed=2)
        )
        sources = {c.source for c in registry}
        assert sources == {RenewableSource.LOCAL_SOLAR, RenewableSource.NET_METERED_FARM}

    @pytest.mark.parametrize("name", [*sorted(PROFILES), *sorted(BENCH_CATALOGS)])
    def test_tree_snapping_matches_argmin(self, name, monkeypatch):
        """Snapping through the k-d tree gives the catalog the argmin over
        every node gives, first-index tie-break included, on every dataset
        profile and every bench workload's catalog."""
        if name in PROFILES:
            network_spec, catalog_spec = PROFILES[name].network, PROFILES[name].catalog
        else:
            network_spec, catalog_spec = BENCH_CATALOGS[name]
        network = build_city_network(network_spec)
        snapped = generate_catalog(network, catalog_spec).all()

        def argmin(tree, order, node_points, anchor) -> int:
            return int(np.argmin(np.sum((node_points - anchor) ** 2, axis=1)))

        monkeypatch.setattr(plugshare, "_snap", argmin)
        assert generate_catalog(network, catalog_spec).all() == snapped

    def test_snapping_breaks_exact_ties_by_first_node(self):
        # Every anchor sits exactly between grid nodes (or on one): the
        # squared distances tie, and argmin keeps the first in node order.
        network = build_grid_network(4, 4, block_km=1.0)
        nodes = list(network.nodes())
        points = np.array([[n.point.x, n.point.y] for n in nodes])
        tree = network.node_index()
        order = {node.node_id: i for i, node in enumerate(nodes)}
        for x in np.arange(-0.5, 4.0, 0.5):
            for y in np.arange(-0.5, 4.0, 0.5):
                anchor = np.array([x, y])
                expected = int(np.argmin(np.sum((points - anchor) ** 2, axis=1)))
                assert plugshare._snap(tree, order, points, anchor) == expected

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CatalogSpec(charger_count=0)
        with pytest.raises(ValueError):
            CatalogSpec(dc_share=1.5)
