"""Configuration loading and the Python 3.10 minimal-TOML fallback."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.config import LintConfig, load_config, parse_minimal_toml
from repro.sim.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestLoadConfig:
    def test_defaults_without_pyproject(self, tmp_path):
        config = load_config(tmp_path)
        assert config.paths == ("src/repro",)
        assert config.families_for("src/repro/sim/kernel.py") == frozenset()

    def test_full_table(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            """
            [tool.repro-lint]
            paths = ["src"]
            baseline = "base.json"

            [tool.repro-lint.scopes]
            determinism = ["src/sim"]
            hotpath = ["src/sim/component.py"]

            [tool.repro-lint.options]
            value-class-modules = ["src/sim/values.py"]
            """
        )
        config = load_config(tmp_path)
        assert config.paths == ("src",)
        assert config.baseline == "base.json"
        assert config.families_for("src/sim/clock.py") == {"determinism"}
        assert config.families_for("src/sim/component.py") == {
            "determinism",
            "hotpath",
        }
        assert config.families_for("src/other.py") == frozenset()
        assert config.is_value_class_module("src/sim/values.py")
        assert not config.is_value_class_module("src/sim/clock.py")

    def test_unknown_family_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint.scopes]\nnonsense = [\"src\"]\n"
        )
        with pytest.raises(ConfigurationError, match="unknown repro-lint rule family"):
            load_config(tmp_path)

    def test_non_string_paths_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.repro-lint]\npaths = [1]\n")
        with pytest.raises(ConfigurationError, match="array of strings"):
            load_config(tmp_path)

    def test_scope_prefix_matches_whole_components(self):
        config = LintConfig(scopes={"determinism": ("src/sim",)})
        assert config.families_for("src/sim/x.py") == {"determinism"}
        assert config.families_for("src/simulator/x.py") == frozenset()


class TestMinimalTomlFallback:
    """The 3.10 parser must agree with tomllib on the repro-lint table."""

    def test_parity_on_shipped_pyproject(self):
        tomllib = pytest.importorskip("tomllib")
        text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        mini = parse_minimal_toml(text)
        real = tomllib.loads(text)
        assert mini["tool"]["repro-lint"] == real["tool"]["repro-lint"]

    def test_scalars_and_arrays(self):
        document = parse_minimal_toml(
            """
            [tool.repro-lint]
            flag = true
            count = 3
            name = "x"  # trailing comment
            items = [
                "a",  # per-item comment
                "b",
            ]
            """
        )
        table = document["tool"]["repro-lint"]
        assert table == {
            "flag": True,
            "count": 3,
            "name": "x",
            "items": ["a", "b"],
        }

    def test_foreign_tables_skipped_not_parsed(self):
        # Constructs the subset does not support are fine outside repro-lint.
        document = parse_minimal_toml(
            """
            [tool.other]
            weird = { inline = "table" }

            [tool.repro-lint]
            paths = ["src"]
            """
        )
        assert document["tool"]["repro-lint"] == {"paths": ["src"]}

    def test_unsupported_value_in_repro_lint_table_rejected(self):
        with pytest.raises(ConfigurationError, match="unsupported value"):
            parse_minimal_toml("[tool.repro-lint]\nweird = 1.5\n")
