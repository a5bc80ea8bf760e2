"""The ``python -m repro lint`` subcommand, end to end."""

import json
import pathlib

from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _project(tmp_path, source: str) -> pathlib.Path:
    """A throwaway project tree with one storage-scoped module."""
    module = tmp_path / "src" / "repro" / "storage" / "thing.py"
    module.parent.mkdir(parents=True)
    module.write_text(source)
    (tmp_path / "scripts").mkdir()
    return tmp_path


class TestRepoIsClean:
    def test_lint_with_baseline_is_clean_on_this_repo(self, capsys):
        exit_code = main(["lint", "--root", str(REPO_ROOT), "--baseline"])
        output = capsys.readouterr().out
        assert exit_code == 0, output
        assert "clean" in output

    def test_json_report_shape(self, capsys):
        exit_code = main(
            ["lint", "--root", str(REPO_ROOT), "--baseline", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0, payload
        assert payload["ok"] is True
        assert payload["files"] > 50
        assert payload["findings"] == []
        assert payload["baseline_errors"] == []
        assert "DET001" in payload["rules"]


class TestExitCodes:
    def test_findings_exit_one(self, tmp_path, capsys):
        root = _project(tmp_path, "import time\nstamp = time.time()\n")
        exit_code = main(["lint", "--root", str(root)])
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "DET002" in output

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = _project(tmp_path, "VALUE = 1\n")
        assert main(["lint", "--root", str(root)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", "--root", str(tmp_path), "nowhere/"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        root = _project(tmp_path, "VALUE = 1\n")
        (root / "lint-baseline.json").write_text("{broken")
        assert main(["lint", "--root", str(root), "--baseline"]) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestBaselineWorkflow:
    def test_write_then_enforce_baseline(self, tmp_path, capsys):
        root = _project(tmp_path, "import time\nstamp = time.time()\n")
        assert main(["lint", "--root", str(root), "--write-baseline"]) == 0
        capsys.readouterr()
        baseline_path = root / "lint-baseline.json"
        payload = json.loads(baseline_path.read_text())
        assert payload["entries"][0]["rule"] == "DET002"
        # An empty rationale is rejected by the ratchet...
        assert main(["lint", "--root", str(root), "--baseline"]) == 1
        assert "no rationale" in capsys.readouterr().out
        # ...and accepted once the author explains the exception.
        payload["entries"][0]["rationale"] = "timing is displayed, never stored"
        baseline_path.write_text(json.dumps(payload))
        assert main(["lint", "--root", str(root), "--baseline"]) == 0

    def test_fixed_finding_makes_entry_stale(self, tmp_path, capsys):
        root = _project(tmp_path, "import time\nstamp = time.time()\n")
        main(["lint", "--root", str(root), "--write-baseline"])
        payload = json.loads((root / "lint-baseline.json").read_text())
        payload["entries"][0]["rationale"] = "acknowledged"
        (root / "lint-baseline.json").write_text(json.dumps(payload))
        # Fix the finding: the baseline entry must now be flagged as stale.
        (root / "src" / "repro" / "storage" / "thing.py").write_text("VALUE = 1\n")
        capsys.readouterr()
        assert main(["lint", "--root", str(root), "--baseline"]) == 1
        assert "stale entry" in capsys.readouterr().out


class TestListing:
    def test_list_rules_catalogue(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        output = capsys.readouterr().out
        for rule_id in (
            "DET001", "DET002", "DET003",
            "CODEC001", "CODEC002",
            "POOL001", "POOL002",
            "DEAD001",
            "LINT001", "LINT002",
        ):
            assert rule_id in output
