"""Positive/negative fixtures for the fork/resource-safety (RES) rules."""

from __future__ import annotations


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
    def test_os_exit_flagged_outside_fault_injector(self, harness):
        source = """
            import os

            def crash():
                os._exit(1)
        """
        assert harness.rule_ids(source) == ["RES003"]

    def test_os_exit_allowed_in_configured_module(self, harness):
        source = """
            import os

            def crash():
                os._exit(1)
        """
        assert harness.rule_ids(source, os_exit_ok=True) == []

    def test_sys_exit_not_flagged(self, harness):
        source = """
            import sys

            def stop():
                sys.exit(1)
        """
        assert harness.rule_ids(source) == []
