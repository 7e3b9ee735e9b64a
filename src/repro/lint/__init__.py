"""``repro lint`` — AST-based contract analyzer for this repository.

Generic linters (ruff, mypy — both already in CI) check Python; this package
checks the *repository's own invariants*, the ones every optimisation PR is
trusted against:

* **determinism** (``DET``) — seeded RNG only (:class:`~repro.sim.rng.
  RandomStreams` / :func:`~repro.sim.rng.derive_seed`), no wall-clock reads,
  no ``os.urandom``, no salted builtin ``hash()`` for content keys;
* **hash/ordering stability** (``ORD``) — canonical (sorted) JSON encodings
  and no unordered ``set``/filesystem iteration feeding stores or draws;
* **hot-path discipline** (``HOT``) — no per-cycle allocation, formatting or
  repeated deep attribute chains inside ``tick``/``fast_forward``/
  ``next_event`` bodies;
* **component contracts** (``CON``) — components overriding ``next_event``
  push wakes, ``fast_forward`` overrides come with ``next_event``, value
  classes carry ``__slots__``;
* **fork/resource safety** (``RES``) — ``flock`` acquisitions are paired
  with releases, and no module calls ``os._exit``.

The engine parses every file once and dispatches AST nodes to all registered
rules in a single pass.  Findings can be suppressed in place with a
``# repro-lint: allow[RULE]`` pragma (same line or the comment line directly
above) or grandfathered in a committed baseline file whose entries each
carry a written reason.  Configuration lives under ``[tool.repro-lint]`` in
``pyproject.toml``; run it as ``repro lint`` or ``python -m repro.lint``.
"""

from __future__ import annotations

from .baseline import Baseline
from .config import LintConfig, load_config
from .engine import LintEngine, LintReport, run_lint
from .findings import Finding, Severity
from .rules import ALL_RULES, rule_ids

__all__ = [
    "ALL_RULES",
    "Baseline",
    "Finding",
    "LintConfig",
    "LintEngine",
    "LintReport",
    "Severity",
    "load_config",
    "rule_ids",
    "run_lint",
]
