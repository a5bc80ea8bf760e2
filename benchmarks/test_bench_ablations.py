"""Benchmark: the ablations of paper Sections 4.3 and 5.1.5 (see docs/paper-map.md).

Shape expectations:
* replacing ground-truth relationships with Gao-inferred ones moves the SA
  percentages only modestly (paper Section 4.3);
* best-routes-only and all-candidate-routes visibility nearly coincide;
* fewer collector vantage points identify fewer Case-3 outcomes.
"""


def test_bench_ablations(benchmark, run_experiment):
    result = run_experiment(benchmark, "ablations")
    rows = result.rows
    relationship_rows = [row for row in rows if row[0] == "relationships"]
    visibility_rows = [row for row in rows if row[0] == "visibility"]
    vantage_rows = [row for row in rows if row[0] == "vantage points"]
    assert relationship_rows and visibility_rows and vantage_rows

    # Relationship ablation: same provider, two variants, comparable values.
    by_provider = {}
    for _, provider, variant, value in relationship_rows:
        by_provider.setdefault(provider, {})[variant] = float(value.rstrip("%"))
    for provider, variants in by_provider.items():
        if len(variants) == 2:
            truth = variants["ground truth"]
            inferred = variants["Gao-inferred"]
            assert abs(truth - inferred) <= max(10.0, 0.75 * max(truth, inferred))

    # Visibility ablation: the two counts are close (within a factor of two).
    by_provider = {}
    for _, provider, variant, value in visibility_rows:
        by_provider.setdefault(provider, {})[variant] = int(value)
    for provider, variants in by_provider.items():
        best_only = variants["best routes (paper)"]
        all_routes = variants["all candidate routes"]
        assert all_routes <= best_only
        if best_only:
            assert all_routes >= 0.5 * best_only

    # Vantage ablation: identification does not increase as vantages shrink.
    identified = [float(value.split("%")[0]) for _, _, _, value in vantage_rows]
    assert identified[0] >= identified[-1]
