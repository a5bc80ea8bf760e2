"""Structural tests of the columnar MeasurementIndex."""

import pytest
from helpers import small_dataset

from repro.analysis.engine import AnalysisEngine
from repro.analysis.index import MeasurementIndex


@pytest.fixture(scope="module")
def dataset():
    return small_dataset()


@pytest.fixture(scope="module")
def index(dataset) -> MeasurementIndex:
    # Built independently of the dataset's memoised engine so these tests
    # stay valid whatever the engine has touched.
    return MeasurementIndex.from_dataset(dataset)


class TestInterning:
    def test_prefix_ids_are_bijective(self, index):
        assert len(index.prefixes) == len(index.prefix_ids)
        for pid, prefix in enumerate(index.prefixes):
            assert index.prefix_ids[prefix] == pid

    def test_path_ids_are_bijective(self, index):
        assert len(index.paths) == len(index.path_ids)
        for path_id, path in enumerate(index.paths):
            assert index.path_ids[path] == path_id

    def test_collapsed_paths_match_deduplication(self, index):
        for path_id, path in enumerate(index.paths):
            assert index.collapsed[path_id] == path.deduplicate().asns
            assert index.path_origin[path_id] == path.origin_as

    def test_unknown_prefix_has_no_id(self, index):
        from repro.net.prefix import Prefix

        assert index.prefix_id(Prefix.parse("203.0.113.0/24")) is None


class TestCollectorColumns:
    def test_one_row_per_collector_entry(self, index, dataset):
        assert len(index.col_vantage) == len(dataset.collector.entries)
        for row, entry in enumerate(dataset.collector.entries):
            assert index.col_vantage[row] == entry.vantage
            assert index.prefixes[index.col_prefix[row]] == entry.prefix
            assert index.paths[index.col_path[row]] == entry.as_path

    def test_rows_by_prefix_matches_entries_for_prefix(self, index, dataset):
        for prefix in dataset.collector.prefixes():
            pid = index.prefix_id(prefix)
            rows = index.rows_by_prefix[pid]
            legacy = dataset.collector.entries_for_prefix(prefix)
            assert [dataset.collector.entries[r] for r in rows] == legacy

    def test_rows_by_member_matches_paths_containing(self, index, dataset):
        sample = sorted(index.rows_by_member)[:10]
        for asn in sample:
            rows = index.rows_by_member[asn]
            legacy = list(dataset.collector.paths_containing(asn))
            assert [index.paths[index.col_path[r]] for r in rows] == legacy

    def test_adjacency_matches_verifier(self, index, dataset):
        from repro.core.verification import Verifier

        verifier = Verifier(dataset.ground_truth_graph)
        assert index.adjacency == verifier._observed_adjacency(dataset.collector)


class TestGlassAndTableColumns:
    def test_glass_rows_cover_every_candidate_route(self, index, dataset):
        for asn, view in index.glasses.items():
            table = dataset.looking_glass_of(asn).table
            route_count = sum(len(entry.routes) for entry in table.entries())
            assert view.route_count == route_count
            assert view.entry_count == len(table)
            assert list(view.entry_offsets)[-1] == route_count

    def test_table_rows_cover_every_best_route(self, index, dataset):
        rib = dataset.result.rib
        for asn, view in index.tables.items():
            best = list(dataset.result.table_of(asn).best_routes())
            assert [
                rib.route(route.prefix, rib_row)
                for route, rib_row in zip(best, view.best_route)
            ] == best
            for row, route in enumerate(best):
                assert index.prefixes[view.best_prefix[row]] == route.prefix
                assert view.best_origin[row] == route.origin_as
                assert view.row_of_prefix[view.best_prefix[row]] == row

    def test_every_observed_as_has_a_table(self, index, dataset):
        assert sorted(index.tables) == sorted(dataset.result.observed_ases)


class TestIrrRowsAndStats:
    def test_irr_rows_cover_every_object(self, index, dataset):
        assert len(index.irr_rows) == len(dataset.irr)
        by_asn = {row.asn: row for row in index.irr_rows}
        for obj in dataset.irr:
            row = by_asn[obj.asn]
            assert row.last_updated == obj.last_updated
            assert row.imports == tuple(
                (line.peer_as, line.pref) for line in obj.imports
            )

    def test_stats_counters(self, index, dataset):
        stats = index.stats()
        assert stats["collector_rows"] == len(dataset.collector.entries)
        assert stats["looking_glasses"] == len(dataset.looking_glasses)
        assert stats["observed_tables"] == len(dataset.result.observed_ases)
        assert stats["irr_objects"] == len(dataset.irr)
        assert stats["interned_prefixes"] == len(index.prefixes)

    def test_providers_under_study_matches_dataset(self, index, dataset):
        assert AnalysisEngine(index).providers_under_study() == (
            dataset.providers_under_study(3)
        )
