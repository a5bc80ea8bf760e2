"""Shared fixtures for the core-analysis tests.

The module-scoped ``dataset`` fixture is the small memoised study dataset;
building it once keeps the whole core test package fast while still
exercising the full generate → propagate → observe pipeline.
"""

import pytest
from helpers import small_dataset

from repro.data.dataset import StudyDataset


@pytest.fixture(scope="package")
def dataset() -> StudyDataset:
    return small_dataset()


@pytest.fixture(scope="package")
def graph(dataset):
    return dataset.ground_truth_graph


@pytest.fixture(scope="package")
def glasses(dataset):
    return [dataset.looking_glass_of(asn) for asn in dataset.looking_glass_ases]


@pytest.fixture(scope="package")
def provider_tables(dataset):
    providers = dataset.internet.providers_under_study(3)
    return {provider: dataset.result.table_of(provider) for provider in providers}


@pytest.fixture(scope="package")
def sa_reports(dataset, graph, provider_tables):
    from repro.core.export_policy import ExportPolicyAnalyzer

    analyzer = ExportPolicyAnalyzer(graph)
    return analyzer.analyze_providers(
        provider_tables, known_customer_prefixes=dataset.internet.originated
    )
