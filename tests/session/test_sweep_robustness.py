"""Tests of the sweep's fault tolerance: retries, quarantine, degradation.

Every fault here is injected through a deterministic
:class:`~repro.faults.plan.FaultPlan`, so the failures (and therefore the
recoveries) replay identically on every run.
"""

import json

import pytest

from repro.faults.plan import FaultPlan, FaultRule
from repro.session.sweep import normalize_error, run_sweep

#: Two small, fast family cases; enough to exercise the pool paths.
CASES = ["collector-size@0", "collector-size@1"]

#: One experiment keeps each case attempt well under a second.
EXPERIMENTS = ["table2"]


def kill_plan(tmp_path, *, times=1, match="*") -> FaultPlan:
    return FaultPlan(
        seed=0,
        state_dir=str(tmp_path / "fault-state"),
        rules=(FaultRule("worker-kill", rate=1.0, times=times, match=match),),
    )


class TestNormalizeError:
    def test_path_placeholders(self, tmp_path):
        message = f"cannot write {tmp_path}/cache/topology/ab/abc.art"
        out = normalize_error(message, ("<cache-dir>", tmp_path / "cache"))
        assert out == "cannot write <cache-dir>/topology/ab/abc.art"

    def test_hex_addresses(self):
        out = normalize_error("<Study object at 0x7f3a2b1c9d80> died")
        assert out == "<Study object at 0x<addr>> died"

    def test_pid_spellings(self):
        assert normalize_error("worker pid 12345 exited") == "worker pid=<pid> exited"
        assert normalize_error("PID: 99 gone") == "PID=<pid> gone"
        assert (
            normalize_error("A child process 4242 was terminated")
            == "A child process <pid> was terminated"
        )

    def test_plain_messages_untouched(self):
        assert normalize_error("unknown experiment 'x'") == "unknown experiment 'x'"


class TestRetries:
    def test_transient_crash_is_retried_serially(self, tmp_path):
        # Each case is killed exactly once (in-process: FaultInjected), so
        # attempt 2 succeeds for both.
        report = run_sweep(
            CASES,
            cache_dir=tmp_path / "cache",
            experiments=EXPERIMENTS,
            fault_plan=kill_plan(tmp_path),
            retries=2,
            retry_delay=0.01,
        )
        assert report.ok
        assert all(case.attempts == 2 for case in report.cases)
        assert report.count("completed") == 2

    def test_deterministic_errors_are_never_retried(self, tmp_path):
        report = run_sweep(
            CASES[:1],
            cache_dir=tmp_path / "cache",
            experiments=["no-such-experiment"],
            retries=5,
            retry_delay=0.01,
        )
        (case,) = report.cases
        assert case.status == "failed"
        assert case.attempts == 1  # ReproError: fail fast, no backoff spent

    def test_poison_case_is_quarantined(self, tmp_path):
        # An unbounded kill rule makes the case poison: after the retry
        # budget it lands in quarantine instead of aborting the sweep.
        report = run_sweep(
            CASES[:1] + ["multihoming@0"],
            cache_dir=tmp_path / "cache",
            experiments=EXPERIMENTS,
            fault_plan=kill_plan(tmp_path, times=None, match="collector-size@0"),
            retries=1,
            retry_delay=0.01,
        )
        assert not report.ok
        by_spec = {case.spec: case for case in report.cases}
        assert by_spec["collector-size@0"].status == "quarantined"
        assert by_spec["collector-size@0"].attempts == 2
        assert by_spec["multihoming@0"].status == "completed"

    def test_quarantine_persists_across_resume(self, tmp_path):
        kwargs = dict(
            cache_dir=tmp_path / "cache",
            experiments=EXPERIMENTS,
            retries=0,
            retry_delay=0.01,
        )
        first = run_sweep(
            CASES[:1],
            fault_plan=kill_plan(tmp_path, times=None),
            **kwargs,
        )
        assert first.count("quarantined") == 1
        # The resume (no fault plan at all) must not re-run the poison case.
        second = run_sweep(CASES[:1], **kwargs)
        (case,) = second.cases
        assert case.status == "quarantined"
        assert case.attempts == 0  # served from the manifest, not re-run
        # ... until resume is disabled, which clears the verdict.
        third = run_sweep(CASES[:1], resume=False, **kwargs)
        assert third.cases[0].status == "completed"

    def test_bad_retries_rejected(self, tmp_path):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError, match="retries"):
            run_sweep(CASES, cache_dir=tmp_path / "cache", retries=-1)
        with pytest.raises(ExperimentError, match="timeout"):
            run_sweep(CASES, cache_dir=tmp_path / "cache", case_timeout=0)


class TestPoolRecovery:
    def test_worker_death_does_not_abort_the_sweep(self, tmp_path):
        # rate=1.0, times=1 per case: every worker os._exit()s on its first
        # attempt, the pool breaks, respawns, and the retries complete.
        report = run_sweep(
            CASES,
            cache_dir=tmp_path / "cache",
            experiments=EXPERIMENTS,
            workers=2,
            fault_plan=kill_plan(tmp_path),
            retries=4,
            retry_delay=0.01,
        )
        assert report.ok
        assert all(case.attempts >= 2 for case in report.cases)

    def test_poison_case_quarantines_in_pool_mode(self, tmp_path):
        report = run_sweep(
            CASES,
            cache_dir=tmp_path / "cache",
            experiments=EXPERIMENTS,
            workers=2,
            fault_plan=kill_plan(tmp_path, times=None, match="collector-size@0"),
            retries=1,
            retry_delay=0.01,
        )
        by_spec = {case.spec: case for case in report.cases}
        assert by_spec["collector-size@0"].status == "quarantined"
        assert by_spec["collector-size@1"].status in ("completed", "cached")

    def test_innocent_case_in_flight_is_never_charged(self, tmp_path):
        # Slow store operations keep collector-size@1 in flight when the
        # poison case kills its worker at the start of its first attempt,
        # so that break hits both cases.  With no retries, charging it to
        # both would quarantine the innocent case too.
        plan = FaultPlan(
            seed=0,
            state_dir=str(tmp_path / "fault-state"),
            rules=(
                FaultRule("worker-kill", rate=1.0, times=None, match="collector-size@0"),
                FaultRule("latency", rate=1.0, times=None, param=0.05),
            ),
        )
        report = run_sweep(
            CASES,
            cache_dir=tmp_path / "cache",
            experiments=EXPERIMENTS,
            workers=2,
            fault_plan=plan,
            retries=0,
        )
        by_spec = {case.spec: case for case in report.cases}
        assert by_spec["collector-size@0"].status == "quarantined"
        assert by_spec["collector-size@1"].status == "completed"

    def test_pool_and_serial_reports_are_byte_identical(self, tmp_path):
        # The chaos invariant in miniature: a sweep that needed crash
        # recovery produces the same timing-masked reports as a clean one.
        clean = run_sweep(
            CASES, cache_dir=tmp_path / "clean", experiments=EXPERIMENTS
        )
        chaotic = run_sweep(
            CASES,
            cache_dir=tmp_path / "chaos",
            experiments=EXPERIMENTS,
            workers=2,
            fault_plan=kill_plan(tmp_path),
            retries=4,
            retry_delay=0.01,
        )
        assert chaotic.ok
        for left, right in zip(clean.cases, chaotic.cases):
            assert open(left.report_path).read() == open(right.report_path).read()


class TestCaseTimeout:
    def test_slow_attempt_is_abandoned_and_retried(self, tmp_path):
        # Each case's topology operations sleep once (times=1 per identity),
        # so attempt 1 overruns the deadline; the retry runs on an idle
        # worker with the latency budget spent and completes.
        plan = FaultPlan(
            seed=0,
            state_dir=str(tmp_path / "fault-state"),
            rules=(
                FaultRule("latency", rate=1.0, match="topology/*", times=1, param=3.0),
            ),
        )
        report = run_sweep(
            CASES,
            cache_dir=tmp_path / "cache",
            experiments=EXPERIMENTS,
            workers=4,
            fault_plan=plan,
            retries=2,
            retry_delay=0.01,
            case_timeout=1.2,
        )
        assert report.ok, report.render()
        assert all(case.attempts == 2 for case in report.cases)

    def test_always_slow_case_is_quarantined(self, tmp_path):
        plan = FaultPlan(
            seed=0,
            state_dir=str(tmp_path / "fault-state"),
            rules=(FaultRule("latency", rate=1.0, times=None, param=0.4),),
        )
        report = run_sweep(
            CASES,
            cache_dir=tmp_path / "cache",
            experiments=EXPERIMENTS,
            workers=2,
            fault_plan=plan,
            retries=1,
            retry_delay=0.01,
            case_timeout=0.6,
        )
        assert all(case.status == "quarantined" for case in report.cases)
        assert all(case.attempts == 2 for case in report.cases)
        assert all("timeout" in case.error for case in report.cases)


class TestDegradation:
    def test_persistent_write_errors_degrade_to_memory_only(self, tmp_path):
        plan = FaultPlan(
            seed=0,
            state_dir=str(tmp_path / "fault-state"),
            rules=(FaultRule("store-write", rate=1.0, times=None, param="ENOSPC"),),
        )
        report = run_sweep(
            CASES,
            cache_dir=tmp_path / "cache",
            experiments=EXPERIMENTS,
            fault_plan=plan,
            retries=0,
        )
        assert report.ok  # the computation succeeds without the disk tier
        for case in report.cases:
            store = case.cache_stats["store"]
            assert store["degraded"] is True
            assert store["write_failures"] >= 1

    def test_bounded_write_errors_do_not_degrade(self, tmp_path):
        # Only the topology write fails — one failure stays under the
        # DEGRADE_AFTER threshold and the next successful write resets the
        # streak, so the disk tier stays healthy.
        plan = FaultPlan(
            seed=0,
            state_dir=str(tmp_path / "fault-state"),
            rules=(
                FaultRule(
                    "store-write", rate=1.0, match="topology/*", times=None,
                    param="EIO",
                ),
            ),
        )
        report = run_sweep(
            CASES[:1],
            cache_dir=tmp_path / "cache",
            experiments=EXPERIMENTS,
            fault_plan=plan,
            retries=0,
        )
        assert report.ok
        (case,) = report.cases
        assert case.cache_stats["store"]["degraded"] is False
        assert case.cache_stats["store"]["write_failures"] >= 1


class TestManifestMismatch:
    def run_once(self, tmp_path, **overrides):
        kwargs = dict(
            cache_dir=tmp_path / "cache",
            sweep_dir=tmp_path / "sweep",
            experiments=EXPERIMENTS,
        )
        kwargs.update(overrides)
        return run_sweep(CASES[:1], **kwargs)

    def test_experiment_set_mismatch_is_surfaced(self, tmp_path, capsys):
        self.run_once(tmp_path)
        report = self.run_once(tmp_path, experiments=["table5"])
        assert report.manifest_note is not None
        assert "experiments" in report.manifest_note
        assert "manifest" in capsys.readouterr().err
        assert report.count("resumed") == 0  # recomputed, not resumed
        assert report.to_dict()["manifest_note"] == report.manifest_note

    def test_version_mismatch_is_surfaced(self, tmp_path):
        self.run_once(tmp_path)
        manifest = tmp_path / "sweep" / "manifest.json"
        data = json.loads(manifest.read_text())
        data["version"] = 999
        manifest.write_text(json.dumps(data))
        report = self.run_once(tmp_path)
        assert "version" in report.manifest_note

    def test_corrupt_manifest_is_surfaced(self, tmp_path):
        self.run_once(tmp_path)
        (tmp_path / "sweep" / "manifest.json").write_text("{truncated")
        report = self.run_once(tmp_path)
        assert "not valid JSON" in report.manifest_note
        assert report.ok

    def test_honoured_manifest_has_no_note(self, tmp_path):
        self.run_once(tmp_path)
        report = self.run_once(tmp_path)
        assert report.manifest_note is None
        assert report.count("resumed") == 1


class TestByteIdenticalFailures:
    def test_failed_sweep_json_is_machine_independent(self, tmp_path):
        # Two sweeps failing the same way in different directories must
        # serialize identically once timings are masked — the error
        # normalizer strips the paths that would otherwise differ.
        reports = []
        for name in ("one", "two"):
            report = run_sweep(
                CASES[:1],
                cache_dir=tmp_path / name / "cache",
                sweep_dir=tmp_path / name / "sweep",
                experiments=["no-such-experiment"],
            )
            payload = report.to_dict(include_timing=False)
            payload["cache_dir"] = payload["sweep_dir"] = "<masked>"
            reports.append(json.dumps(payload))
        assert reports[0] == reports[1]
