"""Tests of process-local fault-plan activation and the injection hooks."""

import errno

import pytest

from repro.faults import runtime
from repro.faults.plan import FaultInjected, FaultPlan, FaultRule
from repro.faults.runtime import (
    PLAN_ENV,
    activate,
    active_plan,
    corrupt_artifact,
    fault_point,
    mark_worker,
)


@pytest.fixture(autouse=True)
def clean_runtime(monkeypatch):
    """Every test starts and ends with no plan and no PLAN_ENV leakage."""
    monkeypatch.delenv(PLAN_ENV, raising=False)
    runtime.reset()
    yield
    runtime.reset()


def plan_with(tmp_path, *rules) -> FaultPlan:
    return FaultPlan(seed=1, state_dir=str(tmp_path / "state"), rules=rules)


class TestActivation:
    def test_activate_exports_to_env(self, tmp_path):
        plan = plan_with(tmp_path)
        activate(plan)
        import os

        assert FaultPlan.from_json(os.environ[PLAN_ENV]) == plan
        assert active_plan() == plan
        activate(None)
        assert PLAN_ENV not in os.environ
        assert active_plan() is None

    def test_lazy_load_from_env(self, tmp_path, monkeypatch):
        plan = plan_with(tmp_path, FaultRule("latency", rate=0.1, param=0.0))
        monkeypatch.setenv(PLAN_ENV, plan.to_json())
        assert active_plan() == plan  # first call loads, later calls reuse

    def test_malformed_env_plan_warns_and_runs_fault_free(self, monkeypatch, capsys):
        monkeypatch.setenv(PLAN_ENV, "{broken json")
        assert active_plan() is None
        assert PLAN_ENV in capsys.readouterr().err
        fault_point("latency", "topology/k")  # must be a no-op, not an error

    def test_no_plan_means_no_op(self):
        fault_point("worker-kill", "case@0")
        fault_point("store-write", "topology/k")
        corrupt_artifact("/nonexistent", "topology/k")

    def test_mark_worker_sets_the_flag(self):
        assert not runtime._IN_WORKER
        mark_worker()
        assert runtime._IN_WORKER


class TestFaultPoint:
    def test_store_write_raises_the_requested_errno(self, tmp_path):
        activate(
            plan_with(
                tmp_path,
                FaultRule("store-write", rate=1.0, times=None, param="ENOSPC"),
            ),
            export=False,
        )
        with pytest.raises(OSError) as exc:
            fault_point("store-write", "topology/k")
        assert exc.value.errno == errno.ENOSPC
        assert "injected" in str(exc.value)

    def test_store_write_eio(self, tmp_path):
        activate(
            plan_with(
                tmp_path, FaultRule("store-write", rate=1.0, times=None, param="EIO")
            ),
            export=False,
        )
        with pytest.raises(OSError) as exc:
            fault_point("store-write", "topology/k")
        assert exc.value.errno == errno.EIO

    def test_worker_kill_raises_in_process(self, tmp_path):
        # Outside a marked pool worker the kill is a catchable exception —
        # and deliberately not a ReproError, so the sweep retries it.
        from repro.exceptions import ReproError

        activate(
            plan_with(tmp_path, FaultRule("worker-kill", rate=1.0, times=None)),
            export=False,
        )
        with pytest.raises(FaultInjected) as exc:
            fault_point("worker-kill", "case@0")
        assert not isinstance(exc.value, ReproError)

    def test_latency_sleeps_the_param(self, tmp_path):
        activate(
            plan_with(
                tmp_path, FaultRule("latency", rate=1.0, times=None, param=0.0)
            ),
            export=False,
        )
        fault_point("latency", "topology/k")  # zero-second sleep, no raise

    def test_bounded_rule_dries_up(self, tmp_path):
        activate(
            plan_with(tmp_path, FaultRule("worker-kill", rate=1.0, times=1)),
            export=False,
        )
        with pytest.raises(FaultInjected):
            fault_point("worker-kill", "case@0")
        fault_point("worker-kill", "case@0")  # budget spent: no-op


class TestCorruptArtifact:
    def write_target(self, tmp_path):
        path = tmp_path / "artifact.art"
        path.write_bytes(b"0123456789abcdef")
        return path

    def corrupting_plan(self, tmp_path, mode) -> FaultPlan:
        return plan_with(
            tmp_path, FaultRule("store-corrupt", rate=1.0, times=None, param=mode)
        )

    def test_flip_changes_one_byte(self, tmp_path):
        path = self.write_target(tmp_path)
        activate(self.corrupting_plan(tmp_path, "flip"), export=False)
        corrupt_artifact(path, "topology/k")
        after = path.read_bytes()
        assert len(after) == 16
        assert after != b"0123456789abcdef"

    def test_truncate_halves_the_file(self, tmp_path):
        path = self.write_target(tmp_path)
        activate(self.corrupting_plan(tmp_path, "truncate"), export=False)
        corrupt_artifact(path, "topology/k")
        assert path.read_bytes() == b"01234567"

    def test_zero_empties_the_file(self, tmp_path):
        path = self.write_target(tmp_path)
        activate(self.corrupting_plan(tmp_path, "zero"), export=False)
        corrupt_artifact(path, "topology/k")
        assert path.read_bytes() == b""

    def test_missing_file_is_tolerated(self, tmp_path):
        activate(self.corrupting_plan(tmp_path, "flip"), export=False)
        corrupt_artifact(tmp_path / "vanished.art", "topology/k")
