"""Positive/negative fixtures for the fork/resource-safety (RES) rules."""

from __future__ import annotations

import pytest

from repro.lint.config import load_config
from repro.lint.engine import LintEngine


class TestFlockPairing:
    def test_acquire_without_release_flagged(self, harness):
        source = """
            import fcntl

            def lock(handle):
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        """
        assert harness.rule_ids(source) == ["RES002"]

    def test_acquire_and_release_ok(self, harness):
        source = """
            import fcntl

            def lock(handle):
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)

            def unlock(handle):
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        """
        assert harness.rule_ids(source) == []

    def test_no_flock_ok(self, harness):
        assert harness.rule_ids("def f():\n    return 1\n") == []


class TestOsExit:
    def test_os_exit_flagged(self, harness):
        source = """
            import os

            def crash():
                os._exit(1)
        """
        assert harness.rule_ids(source) == ["RES003"]

    @pytest.mark.parametrize(
        "source",
        [
            "import os as system\n\ndef crash():\n    system._exit(17)\n",
            "from os import _exit\n\ndef crash():\n    _exit(17)\n",
            "from os import _exit as hard_exit\n\ndef crash():\n    hard_exit(17)\n",
        ],
        ids=["module-alias", "from-import", "from-import-alias"],
    )
    def test_os_exit_flagged_under_any_import_name(self, harness, source):
        assert harness.rule_ids(source) == ["RES003"]

    def test_no_module_is_exempt(self, tmp_path):
        """The retired ``os-exit-modules`` option exempts nothing any more."""
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\npaths = ["faults.py"]\nbaseline = ""\n\n'
            '[tool.repro-lint.scopes]\nresources = ["faults.py"]\n\n'
            '[tool.repro-lint.options]\nos-exit-modules = ["faults.py"]\n'
        )
        (tmp_path / "faults.py").write_text("import os\n\ndef crash():\n    os._exit(17)\n")
        report = LintEngine(load_config(tmp_path)).run(None)
        assert [finding.rule for finding in report.findings] == ["RES003"]

    def test_sys_exit_not_flagged(self, harness):
        source = """
            import sys

            def stop():
                sys.exit(1)
        """
        assert harness.rule_ids(source) == []
