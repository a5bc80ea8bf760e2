"""Tests for the LOCAL_PREF / next-hop consistency analysis (Fig. 2)."""

from repro.bgp.rib import LocRib
from repro.bgp.route import Route
from repro.core.consistency import ConsistencyAnalyzer
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix


def route(prefix, path, local_pref):
    return Route(
        prefix=Prefix.parse(prefix), as_path=ASPath.parse(path), local_pref=local_pref
    )


class TestAnalyzeTable:
    def test_fully_consistent_table(self):
        table = LocRib(owner=10)
        for entry in [
            route("10.1.0.0/16", "1 9", 90),
            route("10.2.0.0/16", "1 8", 90),
            route("10.3.0.0/16", "2 7", 110),
        ]:
            table.add_route(entry)
        result = ConsistencyAnalyzer().analyze_table(table)
        assert result.percent_consistent == 100.0
        assert result.neighbor_modes == {1: 90, 2: 110}
        assert result.total_routes == 3

    def test_prefix_based_overrides_lower_consistency(self):
        table = LocRib(owner=10)
        for entry in [
            route("10.1.0.0/16", "1 9", 90),
            route("10.2.0.0/16", "1 8", 90),
            route("10.3.0.0/16", "1 7", 90),
            route("10.4.0.0/16", "1 6", 120),  # per-prefix override
        ]:
            table.add_route(entry)
        result = ConsistencyAnalyzer().analyze_table(table)
        assert result.total_routes == 4
        assert result.consistent_routes == 3
        assert result.percent_consistent == 75.0

    def test_local_routes_ignored(self):
        from repro.bgp.route import originate

        table = LocRib(owner=10)
        table.add_route(originate(Prefix.parse("10.0.0.0/8"), origin_as=10))
        result = ConsistencyAnalyzer().analyze_table(table)
        assert result.total_routes == 0
        assert result.percent_consistent == 100.0

    def test_empty_table(self):
        result = ConsistencyAnalyzer().analyze_table(LocRib(owner=1))
        assert result.percent_consistent == 100.0


class TestDatasetConsistency:
    def test_fig2a_mostly_next_hop_based(self, dataset, glasses):
        analyzer = ConsistencyAnalyzer()
        results = analyzer.analyze_many(glasses)
        assert len(results) == len(glasses)
        for result in results:
            assert result.percent_consistent > 80.0
        average = sum(r.percent_consistent for r in results) / len(results)
        assert average > 90.0

    def test_fig2b_router_views(self, dataset, glasses):
        analyzer = ConsistencyAnalyzer()
        glass = glasses[0]
        results = analyzer.analyze_routers(glass, router_count=10,
                                           per_prefix_override_fraction=0.05, seed=3)
        assert len(results) == 10
        assert [r.router_id for r in results] == list(range(1, 11))
        for result in results:
            assert 70.0 < result.percent_consistent <= 100.0
        # Router views differ from each other (different per-router overrides).
        assert len({round(r.percent_consistent, 3) for r in results}) > 1
