"""UI rendering tests: HTML map writer and text table renderer."""

import pytest

from repro.core.baselines import BruteForceRanker
from repro.core.ranking import run_over_trip
from repro.ui.map_html import render_offering_map, write_offering_map
from repro.ui.table_render import render_offering_table, render_run_summary


@pytest.fixture(scope="module")
def run(small_environment, sample_trip):
    return run_over_trip(
        BruteForceRanker(small_environment, k=3), small_environment, sample_trip
    )


class TestMapHtml:
    def test_render_is_self_contained_html(self, small_environment, sample_trip, run):
        html = render_offering_map(
            small_environment.network, sample_trip, run.tables, title="Test <Map>"
        )
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "</svg>" in html
        assert "http://" not in html and "https://" not in html  # no external assets
        assert "Test &lt;Map&gt;" in html  # title escaped

    def test_all_offered_chargers_drawn(self, small_environment, sample_trip, run):
        html = render_offering_map(small_environment.network, sample_trip, run.tables)
        circles = html.count('<circle class="charger"')
        expected = sum(len(t) for t in run.tables)
        assert circles == expected

    def test_trip_polyline_present(self, small_environment, sample_trip, run):
        html = render_offering_map(small_environment.network, sample_trip, run.tables)
        assert html.count('<polyline class="trip"') == 1

    def test_write_creates_file(self, tmp_path, small_environment, sample_trip, run):
        path = write_offering_map(
            tmp_path / "map.html", small_environment.network, sample_trip, run.tables
        )
        assert path.exists()
        assert path.read_text().startswith("<!DOCTYPE html>")

    def test_caption_mentions_counts(self, small_environment, sample_trip, run):
        html = render_offering_map(small_environment.network, sample_trip, run.tables)
        assert f"{len(run.tables)} segment(s)" in html


class TestTableRender:
    def test_table_lists_all_entries(self, run):
        table = run.tables[0]
        text = render_offering_table(table)
        for entry in table:
            assert f"b{entry.charger_id}" in text
        assert "SC_min" in text and "SC_max" in text

    def test_custom_title(self, run):
        text = render_offering_table(run.tables[0], title="Custom")
        assert text.splitlines()[0] == "Custom"

    def test_clock_formatting(self, run):
        text = render_offering_table(run.tables[0])
        assert ":" in text  # HH:MM somewhere

    def test_run_summary_one_line_per_table(self, run):
        summary = render_run_summary(run.tables)
        # Header plus one line per segment.
        assert len(summary.splitlines()) == 1 + len(run.tables)
        assert "computed" in summary

    def test_run_summary_empty_table(self, small_environment, sample_trip):
        from repro.core.offering import OfferingTable
        from repro.spatial.geometry import Point

        empty = OfferingTable(0, Point(0, 0), 10.0, 5.0, ())
        summary = render_run_summary([empty])
        assert "(empty)" in summary
