"""Benchmarks of the substrate itself: propagation, inference, data formats.

These measure the cost of the building blocks the table/figure benchmarks sit
on: building the synthetic Internet, propagating routes, inferring
relationships from the collector paths, running the Fig. 4 algorithm, and
round-tripping a table through the MRT-style dump format.
"""

from __future__ import annotations

import io

from repro.core.export_policy import ExportPolicyAnalyzer
from repro.data.mrt import MrtReader, MrtWriter
from repro.relationships.gao import GaoInference
from repro.simulation.policies import PolicyGenerator, PolicyParameters
from repro.simulation.propagation import PropagationEngine
from repro.topology.generator import GeneratorParameters, InternetGenerator


def _bench_internet():
    return InternetGenerator(
        GeneratorParameters(seed=99, tier1_count=5, tier2_count=12, tier3_count=30, stub_count=150)
    ).generate()


def test_bench_topology_generation(benchmark):
    internet = benchmark(_bench_internet)
    assert len(internet.graph) == 197


def test_bench_policy_generation(benchmark):
    internet = _bench_internet()
    assignment = benchmark(
        lambda: PolicyGenerator(PolicyParameters(seed=3)).generate(internet)
    )
    assert len(assignment.policies) == len(internet.graph)


def test_bench_route_propagation(benchmark):
    internet = _bench_internet()
    assignment = PolicyGenerator(PolicyParameters(seed=3)).generate(internet)

    def propagate():
        engine = PropagationEngine(internet, assignment, observed_ases=internet.tier1)
        return engine.run()

    result = benchmark.pedantic(propagate, rounds=1, iterations=1, warmup_rounds=0)
    assert result.truncated_prefixes == []
    assert len(result.observed_ases) == len(internet.tier1)


def test_bench_gao_inference(benchmark, dataset):
    paths = dataset.collector.all_paths()
    inferred = benchmark(lambda: GaoInference().infer(paths))
    assert len(inferred.graph) > 0


def test_bench_sa_prefix_algorithm(benchmark, dataset):
    graph = dataset.ground_truth_graph
    provider = dataset.internet.providers_under_study(1)[0]
    table = dataset.result.table_of(provider)
    analyzer = ExportPolicyAnalyzer(graph)
    report = benchmark(lambda: analyzer.find_sa_prefixes(provider, table))
    assert report.customer_prefix_count > 0


def test_bench_mrt_roundtrip(benchmark, dataset):
    provider = dataset.internet.providers_under_study(1)[0]
    table = dataset.result.table_of(provider)

    def roundtrip():
        buffer = io.BytesIO()
        MrtWriter(buffer).write_table(table)
        buffer.seek(0)
        return MrtReader(buffer).read_tables()

    restored = benchmark(roundtrip)
    assert len(restored[provider]) == len(table)
