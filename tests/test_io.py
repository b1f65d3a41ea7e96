"""Dataset I/O tests: cnode/cedge, Brinkhoff, PLT, CSV, JSON round-trips."""

import pytest

from repro.chargers.plugshare import CatalogSpec, generate_catalog
from repro.chargers.solar import SolarProfile, generate_solar_series
from repro.io.charger_io import (
    chargers_from_json,
    chargers_to_json,
    load_chargers_json,
    read_chargers_csv,
    save_chargers_json,
    write_chargers_csv,
)
from repro.io.network_io import (
    load_network_json,
    network_from_json,
    network_to_json,
    read_cnode_cedge,
    save_network_json,
    write_cnode_cedge,
)
from repro.io.solar_io import read_solar_csv, write_solar_csv
from repro.io.trajectory_io import (
    read_brinkhoff,
    read_plt,
    read_trajectories_csv,
    write_brinkhoff,
    write_trajectories_csv,
)
from repro.network.builders import build_grid_network
from repro.network.path import Trip
from repro.trajectories.brinkhoff import trip_to_trajectory
from repro.trajectories.trajectory import TrajectoryDataset


class TestCnodeCedge:
    def test_round_trip(self, tmp_path, unit_grid):
        cnode, cedge = tmp_path / "a.cnode", tmp_path / "a.cedge"
        write_cnode_cedge(unit_grid, cnode, cedge)
        loaded = read_cnode_cedge(cnode, cedge)
        assert loaded.node_count == unit_grid.node_count
        assert loaded.edge_count == unit_grid.edge_count
        for node in unit_grid.nodes():
            assert loaded.node(node.node_id).point == node.point

    def test_real_format_sample(self, tmp_path):
        """The exact layout of the public California files."""
        (tmp_path / "cal.cnode").write_text("0 -121.9 41.9\n1 -121.9 41.9\n2 -121.8 41.8\n")
        (tmp_path / "cal.cedge").write_text("0 0 1 0.002\n1 1 2 0.1\n")
        network = read_cnode_cedge(tmp_path / "cal.cnode", tmp_path / "cal.cedge")
        assert network.node_count == 3
        assert network.edge(0, 1).length_km == pytest.approx(0.002)
        assert network.has_edge(1, 0)  # bidirectional by default

    def test_directed_mode(self, tmp_path):
        (tmp_path / "n").write_text("0 0 0\n1 1 0\n")
        (tmp_path / "e").write_text("0 0 1 1.0\n")
        network = read_cnode_cedge(tmp_path / "n", tmp_path / "e", bidirectional=False)
        assert network.has_edge(0, 1) and not network.has_edge(1, 0)

    def test_unknown_node_rejected(self, tmp_path):
        (tmp_path / "n").write_text("0 0 0\n")
        (tmp_path / "e").write_text("0 0 9 1.0\n")
        with pytest.raises(ValueError, match="unknown node"):
            read_cnode_cedge(tmp_path / "n", tmp_path / "e")

    def test_malformed_row_rejected(self, tmp_path):
        (tmp_path / "n").write_text("0 0\n")
        (tmp_path / "e").write_text("")
        with pytest.raises(ValueError, match="expected 3 fields"):
            read_cnode_cedge(tmp_path / "n", tmp_path / "e")

    def test_non_finite_length_rejected(self, tmp_path):
        (tmp_path / "n").write_text("0 0 0\n1 1 0\n")
        (tmp_path / "e").write_text("0 0 1 nan\n")
        with pytest.raises(ValueError, match="finite"):
            read_cnode_cedge(tmp_path / "n", tmp_path / "e")

    def test_non_finite_node_rejected(self, tmp_path):
        (tmp_path / "n").write_text("0 nan 0\n1 1 0\n")
        (tmp_path / "e").write_text("0 0 1 1.0\n")
        with pytest.raises(ValueError, match="non-finite"):
            read_cnode_cedge(tmp_path / "n", tmp_path / "e")

    def test_comments_and_blanks_skipped(self, tmp_path):
        (tmp_path / "n").write_text("# header\n\n0 0 0\n1 1 0\n")
        (tmp_path / "e").write_text("0 0 1 1.0\n")
        assert read_cnode_cedge(tmp_path / "n", tmp_path / "e").node_count == 2


class TestNetworkJson:
    def test_round_trip_preserves_speeds(self, small_network):
        loaded = network_from_json(network_to_json(small_network))
        assert loaded.node_count == small_network.node_count
        for edge in small_network.edges():
            twin = loaded.edge(edge.source, edge.target)
            assert twin.speed_kmh == edge.speed_kmh
            assert twin.length_km == edge.length_km

    def test_file_round_trip(self, tmp_path, unit_grid):
        path = tmp_path / "net.json"
        save_network_json(unit_grid, path)
        assert load_network_json(path).edge_count == unit_grid.edge_count

    def test_format_marker_enforced(self):
        with pytest.raises(ValueError):
            network_from_json({"format": "something-else"})


class TestChargerIo:
    def test_csv_round_trip(self, tmp_path, small_network, small_registry):
        path = tmp_path / "chargers.csv"
        write_chargers_csv(small_registry, path)
        loaded = read_chargers_csv(path, small_network)
        assert len(loaded) == len(small_registry)
        for charger in small_registry:
            twin = loaded.get(charger.charger_id)
            assert twin.point == charger.point
            assert twin.rate_kw == charger.rate_kw
            assert twin.plug_type == charger.plug_type

    def test_csv_snaps_to_network(self, tmp_path, small_network, small_registry):
        path = tmp_path / "chargers.csv"
        write_chargers_csv(small_registry, path)
        loaded = read_chargers_csv(path, small_network)
        node_ids = set(small_network.node_ids())
        assert all(c.node_id in node_ids for c in loaded)

    def test_csv_missing_column(self, tmp_path, small_network):
        (tmp_path / "bad.csv").write_text("charger_id,x\n1,0\n")
        with pytest.raises(ValueError, match="missing CSV columns"):
            read_chargers_csv(tmp_path / "bad.csv", small_network)

    def test_csv_unknown_plug_type(self, tmp_path, small_network):
        (tmp_path / "bad.csv").write_text(
            "charger_id,x,y,plug_type,rate_kw,plugs,solar_capacity_kw\n"
            "1,0,0,tesla_magic,11,1,10\n"
        )
        with pytest.raises(ValueError, match="unknown plug type"):
            read_chargers_csv(tmp_path / "bad.csv", small_network)

    def test_csv_non_finite_row_rejected(self, tmp_path, small_network):
        (tmp_path / "bad.csv").write_text(
            "charger_id,x,y,plug_type,rate_kw,plugs,solar_capacity_kw\n"
            "1,0,0,ac_type2,nan,1,10\n"
        )
        with pytest.raises(ValueError, match="finite"):
            read_chargers_csv(tmp_path / "bad.csv", small_network)

    def test_json_round_trip_full_fidelity(self, tmp_path, small_registry):
        path = tmp_path / "chargers.json"
        save_chargers_json(small_registry, path)
        loaded = load_chargers_json(path)
        for charger in small_registry:
            assert loaded.get(charger.charger_id) == charger

    def test_json_format_marker(self):
        with pytest.raises(ValueError):
            chargers_from_json({"format": "nope"})


class TestTrajectoryIo:
    @pytest.fixture(scope="class")
    def dataset(self):
        grid = build_grid_network(5, 5)
        trips = [Trip.route(grid, 0, 24, 9.0), Trip.route(grid, 4, 20, 9.5)]
        return TrajectoryDataset(
            "sample",
            tuple(trip_to_trajectory(t, i) for i, t in enumerate(trips)),
        )

    def test_brinkhoff_round_trip(self, tmp_path, dataset):
        path = tmp_path / "moving_objects.dat"
        write_brinkhoff(dataset, path)
        loaded = read_brinkhoff(path)
        assert len(loaded) == len(dataset)
        for original, parsed in zip(dataset, loaded):
            assert parsed.object_id == original.object_id
            assert len(parsed) == len(original)
            assert parsed.fixes[0].point == original.fixes[0].point

    def test_brinkhoff_real_format_sample(self, tmp_path):
        (tmp_path / "b.dat").write_text(
            "newpoint 0 0 1 0 100.5 200.5 5 101 201\n"
            "point 0 1 1 1 101.0 201.0 5 102 202\n"
            "disappearpoint 0 2 1 2 102.0 202.0 0 102 202\n"
        )
        loaded = read_brinkhoff(tmp_path / "b.dat", tick_h=1.0 / 60.0)
        assert len(loaded) == 1
        trace = loaded.trajectories[0]
        assert len(trace) == 3
        assert trace.duration_h == pytest.approx(2.0 / 60.0)

    def test_brinkhoff_bad_kind(self, tmp_path):
        (tmp_path / "b.dat").write_text("teleport 0 0 1 0 1 1 0 1 1\n")
        with pytest.raises(ValueError, match="unknown record kind"):
            read_brinkhoff(tmp_path / "b.dat")

    def test_plt_parsing(self, tmp_path):
        header = "Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n0,2,255,My Track,0,0,2,8421376\n0\n"
        rows = (
            "39.906631,116.385564,0,492,39882.0,2009-03-10,00:00:00\n"
            "39.907000,116.386000,0,492,39882.000694,2009-03-10,00:01:00\n"
        )
        (tmp_path / "t.plt").write_text(header + rows)
        trace = read_plt(tmp_path / "t.plt", object_id=7)
        assert trace.object_id == 7
        assert len(trace) == 2
        assert trace.start_time_h == 0.0
        assert trace.duration_h == pytest.approx(1.0 / 60.0, rel=1e-3)
        # ~55 m between the fixes.
        assert trace.length_km == pytest.approx(0.055, abs=0.02)

    def test_plt_empty_rejected(self, tmp_path):
        (tmp_path / "t.plt").write_text("h\nh\nh\nh\nh\nh\n")
        with pytest.raises(ValueError, match="no fixes"):
            read_plt(tmp_path / "t.plt")

    def test_csv_round_trip(self, tmp_path, dataset):
        path = tmp_path / "traces.csv"
        write_trajectories_csv(dataset, path)
        loaded = read_trajectories_csv(path)
        assert len(loaded) == len(dataset)
        assert loaded.total_points() == dataset.total_points()

    def test_csv_missing_column(self, tmp_path):
        (tmp_path / "bad.csv").write_text("object_id,time_h\n0,1\n")
        with pytest.raises(ValueError, match="missing CSV columns"):
            read_trajectories_csv(tmp_path / "bad.csv")


class TestSolarIo:
    def test_round_trip(self, tmp_path):
        series = {
            0: generate_solar_series(SolarProfile(10.0), seed=1),
            3: generate_solar_series(SolarProfile(25.0), seed=2),
        }
        path = tmp_path / "cdgs.csv"
        write_solar_csv(series, path)
        loaded = read_solar_csv(path)
        assert set(loaded) == {0, 3}
        for site_id, original in series.items():
            assert loaded[site_id].values_kw == pytest.approx(original.values_kw)

    def test_unsorted_rows_reordered(self, tmp_path):
        (tmp_path / "s.csv").write_text(
            "site_id,interval_start_h,kw\n0,0.25,2.0\n0,0.0,1.0\n"
        )
        loaded = read_solar_csv(tmp_path / "s.csv")
        assert loaded[0].values_kw == (1.0, 2.0)

    def test_gap_detected(self, tmp_path):
        (tmp_path / "s.csv").write_text(
            "site_id,interval_start_h,kw\n0,0.0,1.0\n0,0.75,2.0\n"
        )
        with pytest.raises(ValueError, match="gap"):
            read_solar_csv(tmp_path / "s.csv")

    def test_empty_rejected(self, tmp_path):
        (tmp_path / "s.csv").write_text("site_id,interval_start_h,kw\n")
        with pytest.raises(ValueError, match="no readings"):
            read_solar_csv(tmp_path / "s.csv")
