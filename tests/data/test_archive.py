"""Tests for the on-disk dataset archive (export + load + analyse)."""

import pytest
from helpers import small_dataset

from repro.core.export_policy import ExportPolicyAnalyzer
from repro.core.import_policy import ImportPolicyAnalyzer
from repro.data.archive import export_dataset, load_dataset
from repro.exceptions import DataFormatError
from repro.simulation.collector import LookingGlass
from repro.topology.graph import Relationship


@pytest.fixture(scope="module")
def dataset():
    return small_dataset()


@pytest.fixture(scope="module")
def archive_root(dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("study-archive")
    export_dataset(dataset, root)
    return root


@pytest.fixture(scope="module")
def archive(archive_root):
    return load_dataset(archive_root)


class TestExportLayout:
    def test_manifest_written(self, archive_root):
        manifest = (archive_root / "MANIFEST.txt").read_text()
        assert "repro study-dataset archive" in manifest

    def test_one_mrt_file_per_observed_as(self, dataset, archive_root):
        files = list((archive_root / "rib").glob("AS*.mrt"))
        assert len(files) == len(dataset.result.observed_ases)

    def test_one_text_table_per_looking_glass(self, dataset, archive_root):
        files = list((archive_root / "looking_glass").glob("AS*.txt"))
        assert len(files) == len(dataset.looking_glass_ases)

    def test_relationship_and_prefix_files(self, archive_root):
        assert (archive_root / "relationships" / "edges.csv").exists()
        assert (archive_root / "prefixes" / "originated.csv").exists()
        assert (archive_root / "irr" / "irr.db").exists()


class TestLoadRoundtrip:
    def test_tables_match_observed_ases(self, dataset, archive):
        assert archive.observed_ases == dataset.result.observed_ases
        for asn in archive.observed_ases:
            assert len(archive.tables[asn]) == len(dataset.result.table_of(asn))

    def test_looking_glass_tables_loaded(self, dataset, archive):
        assert archive.looking_glass_ases == sorted(dataset.looking_glass_ases)

    def test_graph_matches_ground_truth(self, dataset, archive):
        truth = dataset.ground_truth_graph
        assert len(archive.graph) == len(truth)
        assert archive.graph.edge_count() == truth.edge_count()
        for asn in truth.ases():
            for neighbor in truth.neighbors(asn):
                assert archive.graph.relationship(asn, neighbor) == truth.relationship(
                    asn, neighbor
                )

    def test_originated_matches_ground_truth(self, dataset, archive):
        for asn, prefixes in dataset.internet.originated.items():
            assert sorted(archive.originated.get(asn, [])) == sorted(prefixes)

    def test_irr_loaded(self, dataset, archive):
        assert len(archive.irr) == len(dataset.irr)

    def test_best_routes_preserved(self, dataset, archive):
        provider = dataset.providers_under_study(1)[0]
        original = dataset.result.table_of(provider)
        restored = archive.tables[provider]
        for entry in original.entries():
            if entry.best is None or entry.best.is_local:
                continue
            restored_best = restored.best_route(entry.prefix)
            assert restored_best is not None
            assert restored_best.as_path == entry.best.as_path


class TestAnalysesOnArchive:
    def test_sa_prefixes_identical_before_and_after_roundtrip(self, dataset, archive):
        provider = dataset.providers_under_study(1)[0]
        analyzer_live = ExportPolicyAnalyzer(dataset.ground_truth_graph)
        analyzer_disk = ExportPolicyAnalyzer(archive.graph)
        live = analyzer_live.find_sa_prefixes(provider, dataset.result.table_of(provider))
        disk = analyzer_disk.find_sa_prefixes(provider, archive.tables[provider])
        assert disk.sa_prefix_set() == live.sa_prefix_set()
        assert disk.customer_prefix_count == live.customer_prefix_count

    def test_import_policy_analysis_on_archived_looking_glass(self, dataset, archive):
        asn = dataset.looking_glass_ases[0]
        analyzer = ImportPolicyAnalyzer(archive.graph)
        glass = LookingGlass(asn, archive.looking_glass_tables[asn])
        result = analyzer.analyze_looking_glass(glass)
        live = ImportPolicyAnalyzer(dataset.ground_truth_graph).analyze_looking_glass(
            dataset.looking_glass_of(asn)
        )
        assert result.comparable_prefixes == live.comparable_prefixes
        assert abs(result.percent_typical - live.percent_typical) < 1.0


class TestErrors:
    def test_load_non_archive_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path)

    def test_malformed_edges_rejected(self, tmp_path):
        (tmp_path / "MANIFEST.txt").write_text("x\n")
        (tmp_path / "relationships").mkdir()
        (tmp_path / "relationships" / "edges.csv").write_text("kind,left,right\nbogus,1\n")
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path)

    def test_malformed_prefix_file_rejected(self, tmp_path):
        (tmp_path / "MANIFEST.txt").write_text("x\n")
        (tmp_path / "prefixes").mkdir()
        (tmp_path / "prefixes" / "originated.csv").write_text("origin_as,prefix\nabc,\n")
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path)

    def test_unknown_relationship_kind_rejected(self, tmp_path):
        (tmp_path / "MANIFEST.txt").write_text("x\n")
        (tmp_path / "relationships").mkdir()
        (tmp_path / "relationships" / "edges.csv").write_text("kind,left,right\nfoo,1,2\n")
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path)

    def test_sibling_edges_roundtrip(self, tmp_path, dataset):
        # Add a sibling edge to the exported graph and make sure it survives.
        root = export_dataset(dataset, tmp_path / "archive")
        edges = (root / "relationships" / "edges.csv").read_text()
        (root / "relationships" / "edges.csv").write_text(edges + "s2s,900001,900002\n")
        archive = load_dataset(root)
        assert archive.graph.relationship(900001, 900002) is Relationship.SIBLING
