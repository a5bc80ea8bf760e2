"""POOL family: unpicklable submissions and stale worker-state reads."""

import pathlib

from helpers import get_rule

from repro.devtools.engine import LintContext, ModuleUnderLint, lint_module

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestDirtyFixture:
    def test_unpicklable_submissions(self, lint_fixture):
        findings = lint_fixture("pool_dirty.py", rules=("POOL001",))
        messages = "\n".join(finding.message for finding in findings)
        assert len(findings) == 3
        assert "lambda submitted" in messages
        assert "locally defined function 'local'" in messages
        assert "bound method 'helper.compute'" in messages

    def test_worker_reading_module_mutable_state(self, lint_fixture):
        findings = lint_fixture("pool_dirty.py", rules=("POOL002",))
        (finding,) = findings
        assert "_worker" in finding.message
        assert "_RESULTS" in finding.message


class TestCleanFixture:
    def test_partial_of_module_function_is_fine(self, lint_fixture):
        assert lint_fixture("pool_clean.py") == []

    def test_thread_pools_are_exempt(self, lint_source):
        findings = lint_source(
            "from concurrent.futures import ThreadPoolExecutor\n"
            "def run(cases):\n"
            "    with ThreadPoolExecutor() as pool:\n"
            "        return list(pool.map(lambda c: c, cases))\n"
        )
        assert findings == []

    def test_initializer_global_write_is_not_a_read(self, lint_source):
        # The initializer *writes* the global; only reads in workers fire.
        findings = lint_source(
            "from concurrent.futures import ProcessPoolExecutor\n"
            "_STATE = None\n"
            "def _init(payload):\n"
            "    global _STATE\n"
            "    _STATE = payload\n"
            "def submit(cases, payload):\n"
            "    with ProcessPoolExecutor(initializer=_init, initargs=(payload,)) as pool:\n"
            "        return list(pool.map(len, cases))\n"
        )
        assert findings == []

    def test_plain_dict_worker_memo_still_fires(self, lint_source):
        # A worker-side memo in a module-level dict is a per-process copy:
        # each worker fills its own, the parent never sees it.
        findings = lint_source(
            "from concurrent.futures import ProcessPoolExecutor\n"
            "_CORES = {}\n"
            "def _worker(descriptor):\n"
            "    return _CORES.setdefault(descriptor, object())\n"
            "def fan_out(tasks):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return [pool.submit(_worker, task) for task in tasks]\n"
        )
        assert len(findings) == 1
        assert "_CORES" in findings[0].message
        assert "_worker" in findings[0].message


class TestRealModules:
    def test_sweep_and_fuzz_pools_are_clean(self):
        context = LintContext(root=REPO_ROOT, src_roots=(REPO_ROOT / "src",))
        rules = [get_rule("POOL001"), get_rule("POOL002")]
        for relative in ("src/repro/session/sweep.py", "src/repro/fuzz/harness.py"):
            module = ModuleUnderLint.parse(
                relative, (REPO_ROOT / relative).read_text()
            )
            assert lint_module(module, context, rules=rules) == [], relative
