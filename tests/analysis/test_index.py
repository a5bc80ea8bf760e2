"""Structural tests of the columnar MeasurementIndex."""

import pytest

from repro.analysis.engine import AnalysisEngine
from repro.analysis.index import MeasurementIndex
from repro.net.aspath import ASPath
from repro.session.scenarios import get_scenario


@pytest.fixture(scope="module")
def study():
    return get_scenario("small").study()


@pytest.fixture(scope="module")
def dataset(study):
    return study.dataset()


@pytest.fixture(scope="module")
def index(study) -> MeasurementIndex:
    # Built from the study's stages, apart from the stage cache's engine,
    # so these tests stay valid whatever the engine has touched.
    return MeasurementIndex(
        study.topology(), study.policies(), study.propagation().rib, study.irr()
    )


class TestInterning:
    def test_prefix_ids_are_bijective(self, index):
        assert len(index.prefixes) == len(index.prefix_ids)
        for pid, prefix in enumerate(index.prefixes):
            assert index.prefix_ids[prefix] == pid

    def test_prefix_ids_are_the_ribs(self, index, dataset):
        assert index.prefixes is dataset.result.rib.prefixes

    def test_path_ids_are_bijective(self, index):
        # Every path id names its own tuple: no two ids share a path.
        assert all(type(path) is tuple for path in index.paths)
        ids = {path: path_id for path_id, path in enumerate(index.paths)}
        assert len(ids) == len(index.paths)

    def test_collapsed_paths_match_deduplication(self, index):
        assert len(index.collapsed) == len(index.paths) == len(index.path_origin)
        for path_id, path in enumerate(index.paths):
            assert index.collapsed[path_id] == ASPath(path).deduplicate().asns
            assert index.path_origin[path_id] == path[-1]

    def test_unknown_prefix_has_no_id(self, index):
        from repro.net.prefix import Prefix

        assert index.prefix_ids.get(Prefix.parse("203.0.113.0/24")) is None


class TestCollectorColumns:
    def test_one_row_per_collector_entry(self, index, dataset):
        assert len(index.col_vantage) == len(dataset.collector.entries)
        for row, entry in enumerate(dataset.collector.entries):
            assert index.col_vantage[row] == entry.vantage
            assert index.prefixes[index.col_prefix[row]] == entry.prefix
            assert index.paths[index.col_path[row]] == entry.as_path.asns

    def test_rows_by_prefix_matches_entries_for_prefix(self, index, dataset):
        for prefix in dataset.collector.prefixes():
            pid = index.prefix_ids[prefix]
            rows = index.rows_by_prefix[pid]
            legacy = dataset.collector.entries_for_prefix(prefix)
            assert [dataset.collector.entries[r] for r in rows] == legacy

    def test_rows_by_member_matches_paths_containing(self, index, dataset):
        sample = sorted(index.rows_by_member)[:10]
        for asn in sample:
            rows = index.rows_by_member[asn]
            legacy = [path.asns for path in dataset.collector.paths_containing(asn)]
            assert [index.paths[index.col_path[r]] for r in rows] == legacy

    def test_adjacency_matches_verifier(self, index, dataset):
        from repro.core.verification import Verifier

        verifier = Verifier(dataset.ground_truth_graph)
        assert index.adjacency == verifier._observed_adjacency(dataset.collector)


class TestGlassAndTableColumns:
    # The engine reads the Looking Glass and best rows in the RIB itself;
    # these tests pin the RIB rows to the LocRib views they stand for.
    def test_glass_rows_cover_every_candidate_route(self, index, dataset):
        rib = index.rib
        route_rows = 0
        for asn in dataset.looking_glass_ases:
            table = dataset.looking_glass_of(asn).table
            route_count = sum(len(entry.routes) for entry in table.entries())
            entries = rib.entries(asn)
            assert len(entries) == len(table)
            assert sum(len(rib.candidates(entry)) for entry in entries) == route_count
            route_rows += route_count
        assert index.stats()["glass_route_rows"] == route_rows

    def test_table_rows_cover_every_best_route(self, index, dataset):
        rib = index.rib
        best_rows = 0
        for asn in dataset.result.observed_ases:
            best = list(dataset.result.table_of(asn).best_routes())
            assert [
                rib.route(rib.prefixes[rib.entry_prefix[entry]], row)
                for entry, row in rib.best_rows(asn)
            ] == best
            best_rows += len(best)
        assert index.stats()["table_best_rows"] == best_rows

    def test_every_observed_as_has_a_table(self, index, dataset):
        assert sorted(index.rib.owners) == sorted(dataset.result.observed_ases)


class TestIrrRowsAndStats:
    def test_irr_rows_cover_every_object(self, index, dataset):
        assert index.irr is dataset.irr
        assert index.stats()["irr_objects"] == len(dataset.irr)

    def test_stats_counters(self, index, dataset):
        stats = index.stats()
        assert stats["collector_rows"] == len(dataset.collector.entries)
        assert stats["looking_glasses"] == len(dataset.looking_glasses)
        assert stats["observed_tables"] == len(dataset.result.observed_ases)
        assert stats["irr_objects"] == len(dataset.irr)
        assert stats["interned_prefixes"] == len(index.prefixes)

    def test_providers_under_study_matches_dataset(self, index, dataset):
        assert AnalysisEngine(index).providers_under_study() == (
            dataset.internet.providers_under_study(3)
        )
