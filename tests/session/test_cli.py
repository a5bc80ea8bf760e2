"""CLI tests, including the golden JSON-schema check for `repro run --json`."""

import json

import pytest

from repro.cli import main as cli_main
from repro.experiments.registry import experiment_ids


def run_cli(capsys, *argv: str) -> str:
    assert cli_main(list(argv)) == 0
    return capsys.readouterr().out


class TestGoldenJson:
    """`python -m repro run table5 --scenario small --json` is schema-stable."""

    @pytest.fixture
    def payload(self, capsys):
        # Cheap to rerun: the small scenario's stages sit in the global cache.
        out = run_cli(capsys, "run", "table5", "--scenario", "small", "--json")
        return json.loads(out)

    def test_top_level_schema(self, payload):
        assert list(payload) == ["scenario", "experiments", "workers", "total_seconds"]
        assert payload["scenario"] == "small"
        assert payload["workers"] == 1

    def test_experiment_schema(self, payload):
        (entry,) = payload["experiments"]
        for key in ("experiment_id", "headers", "rows", "notes", "timing"):
            assert key in entry, key
        assert entry["experiment_id"] == "table5"
        assert entry["headers"][0] == "provider"
        assert entry["rows"], "table5 produced no rows"
        assert all(isinstance(note, str) for note in entry["notes"])
        assert isinstance(entry["timing"], float)


class TestCommands:
    def test_list_covers_every_registered_experiment(self, capsys):
        out = run_cli(capsys, "list")
        for identifier in experiment_ids():
            assert identifier in out

    def test_scenarios_lists_presets(self, capsys):
        out = run_cli(capsys, "scenarios")
        for name in ("standard", "small", "dense-peering", "sparse-multihoming", "large"):
            assert name in out

    def test_scenarios_lists_families(self, capsys):
        out = run_cli(capsys, "scenarios")
        assert "scenario families" in out
        for name in (
            "peering-density",
            "multihoming",
            "hierarchy-depth",
            "community-adoption",
            "collector-size",
        ):
            assert name in out

    def test_scenarios_json_schema(self, capsys):
        payload = json.loads(run_cli(capsys, "scenarios", "--json"))
        assert list(payload) == ["scenarios", "families"]
        preset_names = {entry["name"] for entry in payload["scenarios"]}
        assert "standard" in preset_names
        family_names = {entry["name"] for entry in payload["families"]}
        assert "peering-density" in family_names
        assert all(
            entry["description"] and entry["parameter"] for entry in payload["families"]
        )

    def test_run_accepts_family_sample_scenarios(self, capsys):
        out = run_cli(capsys, "run", "table1", "--scenario", "multihoming@3", "--json")
        assert json.loads(out)["scenario"] == "multihoming@3"

    def test_malformed_family_sample_fails_cleanly(self, capsys):
        assert cli_main(["run", "table1", "--scenario", "multihoming@x"]) == 2
        assert "integer seed" in capsys.readouterr().err

    def test_run_renders_ascii_tables(self, capsys):
        out = run_cli(capsys, "run", "table1", "--scenario", "small")
        assert "table1" in out
        assert "+-" in out

    def test_run_with_seed_changes_the_data(self, capsys):
        baseline = run_cli(capsys, "run", "table5", "--scenario", "small", "--json")
        reseeded = run_cli(
            capsys, "run", "table5", "--scenario", "small", "--seed", "97", "--json"
        )
        assert json.loads(baseline)["experiments"][0]["rows"] != (
            json.loads(reseeded)["experiments"][0]["rows"]
        )

    def test_run_writes_output_dir(self, capsys, tmp_path):
        run_cli(
            capsys, "run", "table1", "--scenario", "small", "--json",
            "--output-dir", str(tmp_path),
        )
        assert (tmp_path / "table1.txt").exists()
        suite = json.loads((tmp_path / "suite.json").read_text())
        assert suite["experiments"][0]["experiment_id"] == "table1"

    def test_index_prints_size_counters(self, capsys):
        out = run_cli(capsys, "index", "--scenario", "small")
        for counter in ("collector_rows", "interned_prefixes", "observed_tables"):
            assert counter in out

    def test_index_json_schema(self, capsys):
        out = run_cli(capsys, "index", "--scenario", "small", "--json")
        payload = json.loads(out)
        assert payload["collector_rows"] > 0
        assert payload["interned_paths"] > 0
        assert "build_seconds" in payload

    def test_index_unknown_scenario_fails_cleanly(self, capsys):
        assert cli_main(["index", "--scenario", "nope"]) == 2

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert cli_main(["run", "table1", "--scenario", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown scenario")
        assert "standard" in err  # the message names the known presets

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert cli_main(["run", "table99", "--scenario", "small"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown experiment")

    def test_only_process_pool_commands_take_workers(self, capsys):
        # Experiments run in one thread; fuzz, sweep and chaos fan cases out
        # over processes.
        with pytest.raises(SystemExit):
            cli_main(["run", "table1", "--workers", "2"])
        assert "--workers" in capsys.readouterr().err
        for command in ("fuzz", "sweep", "chaos"):
            with pytest.raises(SystemExit):
                cli_main([command, "--help"])
            assert "--workers" in capsys.readouterr().out


class TestCacheCommands:
    def test_run_with_cache_dir_persists_artifacts(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        run_cli(
            capsys, "run", "table2", "--scenario", "multihoming@5",
            "--cache-dir", str(cache_dir),
        )
        assert (cache_dir / "topology").is_dir()
        assert (cache_dir / "propagation").is_dir()

    def test_cache_stats_text_and_json(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        run_cli(
            capsys, "run", "table2", "--scenario", "multihoming@5",
            "--cache-dir", str(cache_dir),
        )
        out = run_cli(capsys, "cache", "stats", "--cache-dir", str(cache_dir))
        assert "topology" in out and "artifact(s)" in out
        payload = json.loads(
            run_cli(capsys, "cache", "stats", "--cache-dir", str(cache_dir), "--json")
        )
        assert payload["disk"]["topology"]["artifacts"] >= 1
        assert payload["disk"]["propagation"]["bytes"] > 0

    def test_cache_clear(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        run_cli(
            capsys, "run", "table1", "--scenario", "multihoming@5",
            "--cache-dir", str(cache_dir),
        )
        out = run_cli(capsys, "cache", "clear", "--cache-dir", str(cache_dir))
        assert "cleared" in out
        payload = json.loads(
            run_cli(capsys, "cache", "stats", "--cache-dir", str(cache_dir), "--json")
        )
        assert all(entry["artifacts"] == 0 for entry in payload["disk"].values())

    def test_second_run_hits_the_disk_tier(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        first = run_cli(
            capsys, "run", "table5", "--scenario", "multihoming@5", "--json",
            "--cache-dir", str(cache_dir),
        )
        second = run_cli(
            capsys, "run", "table5", "--scenario", "multihoming@5", "--json",
            "--cache-dir", str(cache_dir),
        )
        assert json.loads(first)["experiments"][0]["rows"] == (
            json.loads(second)["experiments"][0]["rows"]
        )


class TestSweepCommand:
    def test_sweep_runs_resumes_and_caches(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        args = (
            "sweep", "collector-size@0", "collector-size@1",
            "-e", "table2", "--cache-dir", cache_dir,
        )
        cold = json.loads(run_cli(capsys, *args, "--json"))
        assert cold["ok"] and cold["counts"]["completed"] == 2

        resumed = json.loads(run_cli(capsys, *args, "--json"))
        assert resumed["counts"]["resumed"] == 2

        warm = json.loads(
            run_cli(
                capsys, *args, "--json", "--sweep-dir", str(tmp_path / "warm")
            )
        )
        assert warm["counts"]["cached"] == 2

    def test_sweep_family_expansion(self, capsys, tmp_path):
        report = json.loads(
            run_cli(
                capsys, "sweep", "--family", "collector-size", "--count", "2",
                "-e", "table2", "--cache-dir", str(tmp_path / "cache"), "--json",
            )
        )
        specs = [case["spec"] for case in report["cases"]]
        assert specs == ["collector-size@0", "collector-size@1"]

    def test_sweep_without_cases_fails_cleanly(self, capsys, tmp_path):
        assert cli_main(["sweep", "--cache-dir", str(tmp_path / "cache")]) == 2
        assert "at least one case" in capsys.readouterr().err

    def test_sweep_interruption_exit_code(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_FAIL_AFTER", "1")
        code = cli_main(
            [
                "sweep", "collector-size@0", "collector-size@1",
                "-e", "table2", "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 3
        assert "interrupted" in capsys.readouterr().err


class TestSweepRobustnessFlags:
    def test_fault_plan_file_with_retries(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            json.dumps(
                {
                    "seed": 0,
                    "state_dir": str(tmp_path / "fault-state"),
                    "rules": [{"site": "worker-kill", "rate": 1.0, "times": 1}],
                }
            )
        )
        report = json.loads(
            run_cli(
                capsys, "sweep", "collector-size@0", "-e", "table2",
                "--cache-dir", str(tmp_path / "cache"),
                "--fault-plan", str(plan_path), "--retries", "2", "--json",
            )
        )
        assert report["ok"]
        (case,) = report["cases"]
        assert case["attempts"] == 2  # killed once, completed on the retry

    def test_quarantined_cases_fail_the_exit_code(self, capsys, tmp_path):
        plan = (
            '{"seed": 0, "state_dir": "%s", '
            '"rules": [{"site": "worker-kill", "rate": 1.0, "times": null}]}'
            % (tmp_path / "fault-state")
        )
        code = cli_main(
            [
                "sweep", "collector-size@0", "-e", "table2",
                "--cache-dir", str(tmp_path / "cache"),
                "--fault-plan", plan, "--retries", "1", "--json",
            ]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["quarantined"] == 1

    def test_malformed_fault_plan_fails_cleanly(self, capsys, tmp_path):
        code = cli_main(
            [
                "sweep", "collector-size@0", "-e", "table2",
                "--cache-dir", str(tmp_path / "cache"),
                "--fault-plan", '{"seed": 0}',
            ]
        )
        assert code == 2
        assert "fault plan" in capsys.readouterr().err

    def test_cache_stats_include_health(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_cli(
            capsys, "sweep", "collector-size@0", "-e", "table2",
            "--cache-dir", cache_dir,
        )
        out = run_cli(capsys, "cache", "stats", "--cache-dir", cache_dir)
        assert "health: degraded=no" in out
        payload = json.loads(
            run_cli(capsys, "cache", "stats", "--cache-dir", cache_dir, "--json")
        )
        assert payload["health"]["degraded"] is False
        assert payload["health"]["quarantined_files"] == 0


class TestChaosCommand:
    def test_chaos_smoke(self, capsys, tmp_path):
        # The smallest full harness run: two cases, one experiment.
        out = run_cli(
            capsys, "chaos", "--seed", "0", "--count", "2", "-e", "table2",
            "--dir", str(tmp_path / "scratch"), "--json",
        )
        report = json.loads(out)
        assert report["ok"]
        assert {check["name"] for check in report["checks"]} == {
            "baseline", "chaos-sweep", "kill-point", "resume",
            "degradation", "warm-reread",
        }
