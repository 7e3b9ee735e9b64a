"""Configuration: ``[tool.repro-lint]`` in ``pyproject.toml``.

Each rule *family* gets a path scope (directories or files, relative to the
repository root) so e.g. determinism rules bite inside the simulator but not
inside the observability exporters.  Rule-specific knobs (which modules hold
value classes) live under ``options``.

``tomllib`` only exists on Python 3.11+; on 3.10 (still in the CI matrix) a
minimal built-in parser covers the TOML subset this configuration actually
uses — tables, strings, booleans, integers and (multi-line) string arrays.
No third-party dependency is introduced either way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from ..sim.errors import ConfigurationError

try:  # Python 3.11+
    import tomllib
except ImportError:  # pragma: no cover - Python 3.10 fallback, tested directly
    tomllib = None  # type: ignore[assignment]

__all__ = ["LintConfig", "load_config", "parse_minimal_toml"]

#: The rule families path scopes can be configured for.
FAMILIES = ("determinism", "ordering", "hotpath", "contracts", "resources")

#: The hot-path method names whose bodies the HOT rules inspect.
HOT_METHODS = ("tick", "fast_forward", "next_event")


@dataclass
class LintConfig:
    """Resolved configuration for one lint run (paths are root-relative)."""

    #: Repository root all relative paths resolve against.
    root: Path = field(default_factory=Path.cwd)
    #: Trees/files to analyse.
    paths: tuple[str, ...] = ("src/repro",)
    #: Committed baseline of grandfathered findings ("" = no baseline).
    baseline: str = "lint-baseline.json"
    #: Per-family path scopes; a family with no scope applies nowhere.
    scopes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Modules whose dataclasses must be slotted (CON003).
    value_class_modules: tuple[str, ...] = ()
    #: Hot-path method names (HOT rules); overridable for tests.
    hot_methods: tuple[str, ...] = HOT_METHODS

    def families_for(self, relpath: str) -> frozenset[str]:
        """The rule families whose scope covers ``relpath``."""
        active = [
            family
            for family in FAMILIES
            if any(_covers(prefix, relpath) for prefix in self.scopes.get(family, ()))
        ]
        return frozenset(active)

    def is_value_class_module(self, relpath: str) -> bool:
        return any(_covers(prefix, relpath) for prefix in self.value_class_modules)


def _covers(prefix: str, relpath: str) -> bool:
    """True when ``prefix`` (a file or directory path) contains ``relpath``."""
    prefix = prefix.rstrip("/")
    return relpath == prefix or relpath.startswith(prefix + "/")


# ----------------------------------------------------------------------
# pyproject loading
# ----------------------------------------------------------------------
def load_config(root: Path, pyproject: Path | None = None) -> LintConfig:
    """Build a :class:`LintConfig` from ``pyproject.toml`` under ``root``.

    A missing file or a missing ``[tool.repro-lint]`` table yields the
    defaults (analyse ``src/repro``, every family scoped to nothing — the
    shipped pyproject configures real scopes).
    """
    root = Path(root)
    path = pyproject if pyproject is not None else root / "pyproject.toml"
    table: dict = {}
    if path.exists():
        text = path.read_text(encoding="utf-8")
        if tomllib is not None:
            try:
                document = tomllib.loads(text)
            except tomllib.TOMLDecodeError as error:
                raise ConfigurationError(f"{path}: invalid TOML ({error})") from None
        else:  # pragma: no cover - Python 3.10 path, covered by direct tests
            document = parse_minimal_toml(text)
        tool = document.get("tool", {})
        table = tool.get("repro-lint", {}) if isinstance(tool, dict) else {}
    if not isinstance(table, dict):
        raise ConfigurationError(f"{path}: [tool.repro-lint] must be a table")
    return _config_from_table(root, path, table)


def _config_from_table(root: Path, source: Path, table: dict) -> LintConfig:
    config = LintConfig(root=root)
    if "paths" in table:
        config.paths = _string_tuple(source, "paths", table["paths"])
    if "baseline" in table:
        baseline = table["baseline"]
        if not isinstance(baseline, str):
            raise ConfigurationError(f"{source}: repro-lint baseline must be a string")
        config.baseline = baseline
    scopes = table.get("scopes", {})
    if not isinstance(scopes, dict):
        raise ConfigurationError(f"{source}: [tool.repro-lint.scopes] must be a table")
    for family, value in scopes.items():
        if family not in FAMILIES:
            raise ConfigurationError(
                f"{source}: unknown repro-lint rule family {family!r} "
                f"(known: {', '.join(FAMILIES)})"
            )
        config.scopes[family] = _string_tuple(source, f"scopes.{family}", value)
    options = table.get("options", {})
    if not isinstance(options, dict):
        raise ConfigurationError(f"{source}: [tool.repro-lint.options] must be a table")
    if "value-class-modules" in options:
        config.value_class_modules = _string_tuple(
            source, "options.value-class-modules", options["value-class-modules"]
        )
    return config


def _string_tuple(source: Path, key: str, value: object) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigurationError(
            f"{source}: repro-lint {key} must be an array of strings"
        )
    return tuple(value)


# ----------------------------------------------------------------------
# Minimal TOML subset parser (Python 3.10, where tomllib is absent)
# ----------------------------------------------------------------------
_TABLE_RE = re.compile(r"^\[([^\]]+)\]\s*$")
_KEY_RE = re.compile(r'^([A-Za-z0-9_\-"\'.]+)\s*=\s*(.*)$')


def parse_minimal_toml(text: str) -> dict:
    """Parse the TOML subset the repro-lint configuration uses.

    Supported: ``[dotted.tables]``, ``key = "string" | true | false | int``
    and arrays of strings (single- or multi-line, trailing commas allowed).
    Unsupported constructs raise :class:`ConfigurationError` only when they
    appear inside a ``repro-lint`` table — foreign tables (ruff, mypy, ...)
    are skipped wholesale, so this parser never has to understand them.
    """
    document: dict = {}
    current: dict | None = None
    current_name = ""
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        line = lines[index].strip()
        index += 1
        if not line or line.startswith("#"):
            continue
        match = _TABLE_RE.match(line)
        if match:
            current_name = match.group(1).strip()
            current = _descend(document, current_name)
            continue
        relevant = "repro-lint" in current_name
        match = _KEY_RE.match(line)
        if not match:
            if relevant:
                raise ConfigurationError(f"repro-lint config: cannot parse line {line!r}")
            continue
        key = match.group(1).strip().strip("\"'")
        raw = match.group(2).strip()
        if raw.startswith("[") and "]" not in raw.split("#", 1)[0]:
            # Multi-line array: keep consuming until the closing bracket.
            parts = [raw]
            while index < len(lines):
                part = lines[index].strip()
                index += 1
                parts.append(part)
                if part.split("#", 1)[0].strip().endswith("]"):
                    break
            # Join with newlines so per-item comments stay line-terminated.
            raw = "\n".join(parts)
        if current is None:
            current = document
        try:
            current[key] = _parse_value(raw)
        except ConfigurationError:
            if relevant:
                raise
    return document


def _descend(document: dict, dotted: str) -> dict:
    node = document
    for part in dotted.split("."):
        part = part.strip().strip("\"'")
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigurationError(f"repro-lint config: {dotted!r} is not a table")
    return node


def _parse_value(raw: str) -> object:
    raw = raw.strip()
    if raw.startswith("["):
        closing = raw.rfind("]")
        if closing < 0:
            raise ConfigurationError(f"repro-lint config: unterminated array {raw!r}")
        body = raw[1:closing]
        items: list[object] = []
        for chunk in _split_array(body):
            items.append(_parse_value(chunk))
        return items
    if raw.startswith(('"', "'")):
        quote = raw[0]
        end = raw.find(quote, 1)
        if end < 0:
            raise ConfigurationError(f"repro-lint config: unterminated string {raw!r}")
        return raw[1:end]
    # Strip a trailing comment from bare scalars.
    raw = raw.split("#", 1)[0].strip()
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"repro-lint config: unsupported value {raw!r}") from None


def _split_array(body: str) -> list[str]:
    """Split an array body on commas outside quotes, dropping comments."""
    chunks: list[str] = []
    depth_quote = ""
    current: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if depth_quote:
            current.append(ch)
            if ch == depth_quote:
                depth_quote = ""
        elif ch in ('"', "'"):
            depth_quote = ch
            current.append(ch)
        elif ch == "#":
            # Comment runs to end of line within the joined body.
            nl = body.find("\n", i)
            i = len(body) if nl < 0 else nl
        elif ch == ",":
            chunks.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    chunks.append("".join(current))
    return [chunk.strip() for chunk in chunks if chunk.strip()]
