"""Shared fixtures for the lint test suite."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint.config import FAMILIES, LintConfig
from repro.lint.engine import LintEngine, LintReport


class LintHarness:
    """Writes synthetic modules into a tmp root and lints them."""

    def __init__(self, root: Path) -> None:
        self.root = root

    def lint(
        self,
        source: str,
        *,
        filename: str = "mod.py",
        value_class: bool = False,
        hot_methods: tuple[str, ...] | None = None,
        baseline=None,
    ) -> LintReport:
        path = self.root / filename
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        config = LintConfig(
            root=self.root,
            paths=(filename,),
            baseline="",
            scopes={family: (filename,) for family in FAMILIES},
            value_class_modules=(filename,) if value_class else (),
        )
        if hot_methods is not None:
            config.hot_methods = hot_methods
        return LintEngine(config).run(baseline)

    def rule_ids(self, source: str, **kwargs) -> list[str]:
        """The rule ids of the failing findings, in report order."""
        return [finding.rule for finding in self.lint(source, **kwargs).findings]


@pytest.fixture
def harness(tmp_path: Path) -> LintHarness:
    return LintHarness(tmp_path)
