"""Repository contracts that the behavioural tests cannot see.

Every result of this reproduction must be bit-identical across processes,
hosts and dispatch modes.  Most faults against that show up in the
behavioural tests (three-mode bit-identity, serial == pool campaigns, the
fuzz corpus).  The rules below catch the ones that do not: a fault that
only appears in another process or on a slower host.  Each rule is kept
because a realistic mutation of ``src/repro`` that it flags passed every
other tier-1 test and the fuzz corpus replay; those mutations are the
regression cases at the end of this module.

* DET001: no wall-clock read (``time.perf_counter``, ``datetime.now``, ...).
  Host time must not steer a run.
* DET004: no draw from numpy's global random state and no unseeded
  generator.  Every stream derives from the experiment seed.
* DET005: no builtin ``hash()``.  It is salted per process, so content keys
  go through ``hashlib.blake2b`` and seeds through ``derive_seed``.
* ORD001: ``json.dump``/``json.dumps`` needs ``sort_keys=True`` or a dict
  comprehension over ``sorted(...)``, so the encoding is canonical.
* RES002: a module that takes ``fcntl.flock(LOCK_EX)`` also releases it
  with ``LOCK_UN``.  Closing the handle is not enough while a forked
  worker still holds the descriptor.
* RES003: no ``os._exit``.  It skips every ``finally``, ``atexit`` hook and
  buffered write of the process.

A justified finding keeps a ``# repro-lint: allow[RULE]`` comment on the
flagged line or the line above it.  To add a rule, give it an id, a scope
in ``SCOPES``, a check in ``check``, rows in ``RULE_TABLE``, a probe in
``PROBES`` and a mutation of its real sites in ``SITE_MUTATIONS``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The layers whose behaviour feeds results, seeds or content hashes.  The
#: observability exporters and the experiment report formatters are outside:
#: they render results, they do not decide them.
_DETERMINISTIC = tuple(
    f"{layer}/"
    for layer in (
        "arbiters", "bus", "cache", "campaign", "core", "cpu", "fuzz", "hw",
        "mbpta", "memory", "sim", "workloads",
    )
)
#: Where each rule applies: path prefixes relative to ``src/repro``.
SCOPES: dict[str, tuple[str, ...]] = {
    "DET001": _DETERMINISTIC,
    "DET004": _DETERMINISTIC,
    "DET005": _DETERMINISTIC,
    "ORD001": _DETERMINISTIC,
    "RES002": ("",),
    "RES003": ("",),
}
#: Files a rule skips inside its scope.  The executor's job deadlines and
#: phase timings and the progress line's throughput and ETA are wall-clock
#: by design, and none of them reaches a result.
EXEMPT: dict[str, tuple[str, ...]] = {
    "DET001": ("campaign/executor.py", "campaign/progress.py"),
}

_WALL_CLOCK = frozenset(
    {
        "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns", "time.process_time",
        "time.process_time_ns", "time.localtime", "time.gmtime", "time.ctime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)
#: ``numpy.random`` constructors that are deterministic given a seed.
_SEEDABLE = frozenset(
    {
        "numpy.random.default_rng", "numpy.random.Generator",
        "numpy.random.SeedSequence", "numpy.random.PCG64",
    }
)


def _imports(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin for every import in the module."""
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    root = alias.name.split(".", 1)[0]
                    names[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _origin(node: ast.expr, imports: dict[str, str]) -> str:
    """Dotted origin of a name or attribute chain rooted at an import."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in imports:
        return ""
    return ".".join([imports[node.id], *reversed(parts)])


def _canonical_json(call: ast.Call) -> bool:
    """``sort_keys=True``, or a dict comprehension over ``sorted(...)``."""
    for keyword in call.keywords:
        if keyword.arg == "sort_keys":
            return isinstance(keyword.value, ast.Constant) and bool(keyword.value.value)
    arg = call.args[0] if call.args else None
    return isinstance(arg, ast.DictComp) and any(
        isinstance(gen.iter, ast.Call)
        and isinstance(gen.iter.func, ast.Name)
        and gen.iter.func.id == "sorted"
        for gen in arg.generators
    )


def check(source: str, relpath: str) -> list[tuple[str, int]]:
    """The ``(rule, line)`` findings of one module at ``relpath``."""
    rules = {
        rule
        for rule, prefixes in SCOPES.items()
        if relpath.startswith(prefixes) and relpath not in EXEMPT.get(rule, ())
    }
    tree = ast.parse(source)
    imports = _imports(tree)
    findings: list[tuple[str, int]] = []
    locks: list[int] = []
    unlocks = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = _origin(func, imports)
        if name in _WALL_CLOCK:
            findings.append(("DET001", node.lineno))
        elif name.startswith("numpy.random.") and (
            name not in _SEEDABLE or not (node.args or node.keywords)
        ):
            findings.append(("DET004", node.lineno))
        elif isinstance(func, ast.Name) and func.id == "hash" and "hash" not in imports:
            findings.append(("DET005", node.lineno))
        elif name in ("json.dump", "json.dumps") and not _canonical_json(node):
            findings.append(("ORD001", node.lineno))
        elif name == "os._exit":
            findings.append(("RES003", node.lineno))
        elif name == "fcntl.flock":
            flags = {
                sub.attr if isinstance(sub, ast.Attribute) else sub.id
                for arg in node.args[1:]
                for sub in ast.walk(arg)
                if isinstance(sub, (ast.Attribute, ast.Name))
            }
            if "LOCK_UN" in flags:
                unlocks += 1
            elif flags & {"LOCK_EX", "LOCK_SH"}:
                locks.append(node.lineno)
    if not unlocks:
        findings.extend(("RES002", line) for line in locks)
    lines = source.splitlines()
    return sorted(
        (rule, line)
        for rule, line in findings
        if rule in rules and not _allowed(lines, rule, line)
    )


def _allowed(lines: list[str], rule: str, line: int) -> bool:
    """A ``# repro-lint: allow[RULE]`` comment on ``line`` or the one above."""
    pragma = re.compile(rf"#\s*repro-lint:\s*allow\[{rule}\]")
    return any(pragma.search(text) for text in lines[max(line - 2, 0) : line])


def test_src_repro_has_no_findings():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 50  # the whole package was walked
    findings = [
        f"{relpath}:{line}: {rule}"
        for path in files
        for relpath in [path.relative_to(SRC).as_posix()]
        for rule, line in check(path.read_text(encoding="utf-8"), relpath)
    ]
    assert findings == []


#: ``(source, path under src/repro, expected rule ids)``.
RULE_TABLE = [
    ("import time\nstamp = time.time()\n", "sim/m.py", ["DET001"]),
    ("from time import perf_counter as pc\nelapsed = pc()\n", "campaign/m.py", ["DET001"]),
    ("import datetime\nstamp = datetime.datetime.now()\n", "mbpta/m.py", ["DET001"]),
    ("import time\ntime.sleep(0.1)\n", "sim/m.py", []),
    ("def f(clock):\n    return clock.cycle\n", "sim/m.py", []),
    ("import time\nstamp = time.time()\n", "obs/m.py", []),
    ("import time\nstamp = time.monotonic()\n", "campaign/progress.py", []),
    ("import time\nstamp = time.time()  # repro-lint: allow[DET001] telemetry\n", "sim/m.py", []),
    ("import time\n# repro-lint: allow[DET001] telemetry\nstamp = time.time()\n", "sim/m.py", []),
    ("import time\n# repro-lint: allow[DET005]\nstamp = time.time()\n", "sim/m.py", ["DET001"]),
    ("import numpy as np\nx = np.random.rand(4)\n", "workloads/m.py", ["DET004"]),
    ("import numpy as np\nrng = np.random.default_rng()\n", "arbiters/m.py", ["DET004"]),
    ("from numpy.random import shuffle\nshuffle(items)\n", "fuzz/m.py", ["DET004"]),
    ("import numpy as np\nrng = np.random.default_rng(1234)\n", "arbiters/m.py", []),
    ("import numpy as np\nrng = np.random.Generator(np.random.PCG64(99))\n", "sim/m.py", []),
    ("import numpy as np\nx = np.random.rand(4)\n", "experiments/m.py", []),
    ("key = hash(('a', 1))\n", "campaign/m.py", ["DET005"]),
    ("from siphash import hash\nkey = hash(b'data')\n", "campaign/m.py", []),
    ("import hashlib\nkey = hashlib.blake2b(b'x', digest_size=8).hexdigest()\n", "sim/m.py", []),
    ("key = hash(('a', 1))\n", "experiments/m.py", []),
    ("import json\ntext = json.dumps(record)\n", "campaign/m.py", ["ORD001"]),
    ("import json\njson.dump(record, handle)\n", "fuzz/m.py", ["ORD001"]),
    ("import json\ntext = json.dumps(record, sort_keys=False)\n", "campaign/m.py", ["ORD001"]),
    ("import json\ntext = json.dumps(record, sort_keys=True)\n", "campaign/m.py", []),
    ("import json\ntext = json.dumps({k: record[k] for k in sorted(record)})\n", "campaign/m.py", []),
    ("import json\ntext = json.dumps(record, indent=2)\n", "obs/m.py", []),
    ("import fcntl\nfcntl.flock(fd, fcntl.LOCK_EX)\n", "obs/m.py", ["RES002"]),
    ("from fcntl import flock, LOCK_SH\nflock(fd, LOCK_SH)\n", "campaign/m.py", ["RES002"]),
    (
        "import fcntl\nfcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)\nfcntl.flock(fd, fcntl.LOCK_UN)\n",
        "campaign/m.py",
        [],
    ),
    ("import os\nos._exit(1)\n", "cli.py", ["RES003"]),
    ("from os import _exit as hard_exit\nhard_exit(17)\n", "campaign/m.py", ["RES003"]),
    ("import sys\nsys.exit(1)\n", "cli.py", []),
    # Import forms: every alias resolves to the dotted origin.
    ("import time as clock\nstamp = clock.monotonic_ns()\n", "sim/m.py", ["DET001"]),
    ("from datetime import datetime\nstamp = datetime.now()\n", "campaign/m.py", ["DET001"]),
    ("from datetime import date\nday = date.today()\n", "workloads/m.py", ["DET001"]),
    ("import numpy.random as npr\nx = npr.randint(3)\n", "workloads/m.py", ["DET004"]),
    ("from numpy import random\nx = random.normal()\n", "mbpta/m.py", ["DET004"]),
    ("from json import dumps\ntext = dumps(record)\n", "campaign/m.py", ["ORD001"]),
    ("import json as j\ntext = j.dumps(record, sort_keys=True)\n", "campaign/m.py", []),
    ("import os as o\no._exit(0)\n", "experiments/m.py", ["RES003"]),
    # Nested scopes are walked too.
    (
        "import time\nclass Meter:\n    def tick(self):\n        return time.process_time()\n",
        "bus/m.py",
        ["DET001"],
    ),
    ("import time\nstamps = [time.time() for _ in range(3)]\n", "sim/m.py", ["DET001"]),
    ("def key(item):\n    return hash(item)\n", "memory/m.py", ["DET005"]),
    ("def key(item):\n    return item.hash()\n", "memory/m.py", []),
    # Scopes match whole path components, nested directories included.
    ("import time\nstamp = time.time()\n", "campaign/sub/m.py", ["DET001"]),
    ("import time\nstamp = time.time()\n", "simulation/m.py", []),
    ("import time\nstamp = time.time()\n", "experiments/m.py", []),
    ("import time\nstamp = time.perf_counter()\n", "campaign/executor.py", []),
    # A pragma reaches one line down, no further; each call is one finding.
    ("import time\n# repro-lint: allow[DET001]\n\nstamp = time.time()\n", "sim/m.py", ["DET001"]),
    ("import time\na, b = time.time(), time.perf_counter()\n", "sim/m.py", ["DET001", "DET001"]),
    # Global numpy state and unseeded constructors, however they are spelt.
    ("import numpy as np\nnp.random.seed(1)\n", "sim/m.py", ["DET004"]),
    ("import numpy as np\nseq = np.random.SeedSequence()\n", "sim/m.py", ["DET004"]),
    ("import numpy as np\nbits = np.random.PCG64()\n", "sim/m.py", ["DET004"]),
    ("import numpy as np\nrng = np.random.default_rng(seed=3)\n", "sim/m.py", []),
    ("def draw(rng):\n    return rng.random()\n", "arbiters/m.py", []),
    # Only a literal ``sort_keys=True`` is canonical.
    ("import json\ntext = json.dumps(record, sort_keys=flag)\n", "campaign/m.py", ["ORD001"]),
    ("import json\ntext = json.dumps({k: v for k, v in record.items()})\n", "campaign/m.py", ["ORD001"]),
    ("import json\nrecord = json.loads(text)\n", "campaign/m.py", []),
    # The lock pairing is per module: release may sit in another function.
    (
        "import fcntl\ndef take(fd):\n    fcntl.flock(fd, fcntl.LOCK_EX)\n"
        "def give(fd):\n    fcntl.flock(fd, fcntl.LOCK_UN)\n",
        "campaign/m.py",
        [],
    ),
    (
        "import fcntl\nfcntl.flock(a, fcntl.LOCK_EX)\nfcntl.flock(b, fcntl.LOCK_SH)\n",
        "campaign/m.py",
        ["RES002", "RES002"],
    ),
]


@pytest.mark.parametrize(("source", "relpath", "expected"), RULE_TABLE)
def test_rule_table(source, relpath, expected):
    assert [rule for rule, _line in check(source, relpath)] == expected


#: One probe per rule: ``(rule, file, old text, new text, flagged text)``.
#: Each mutation passed every other tier-1 test and the fuzz corpus replay;
#: the checker must report ``rule`` on the line holding ``flagged text``.
PROBES = [
    (
        # A host-time budget silently truncates a job on a slow machine.
        "DET001",
        "campaign/jobs.py",
        "        truncated += int(outcome.truncated)\n",
        "        truncated += int(outcome.truncated)\n"
        "        if time.perf_counter() - started > 600.0:\n"
        "            break\n",
        "if time.perf_counter() - started",
    ),
    (
        # A registry user who passes no stream gets irreproducible draws.
        "DET004",
        "arbiters/registry.py",
        "        rng = np.random.default_rng(0)\n",
        "        rng = np.random.default_rng()\n",
        "rng = np.random.default_rng()",
    ),
    (
        # Job IDs key the artifact store across processes.  The campaign
        # test of content keys now catches this form in a subprocess; the
        # rule covers every other call site.
        "DET005",
        "campaign/jobs.py",
        "        digest = hashlib.blake2b(\n"
        "            json.dumps(spec, sort_keys=True, default=_json_fallback).encode(\"utf-8\"),\n"
        "            digest_size=16,\n"
        "        )\n"
        "        return digest.hexdigest()\n",
        "        text = json.dumps(spec, sort_keys=True, default=_json_fallback)\n"
        "        return format(hash(text) & (2**128 - 1), \"032x\")\n",
        "return format(hash(text)",
    ),
    (
        # The same job spec built in another field order gets another ID.
        "ORD001",
        "campaign/jobs.py",
        "json.dumps(spec, sort_keys=True, default=_json_fallback)",
        "json.dumps(spec, default=_json_fallback)",
        "json.dumps(spec, default=_json_fallback)",
    ),
    (
        # Only closing the handle leaves the lock held by forked workers.
        "RES002",
        "campaign/store.py",
        "                try:\n"
        "                    fcntl.flock(self._lock_handle.fileno(), fcntl.LOCK_UN)\n"
        "                finally:\n"
        "                    self._lock_handle.close()\n"
        "                    self._lock_handle = None\n",
        "                self._lock_handle.close()\n"
        "                self._lock_handle = None\n",
        "fcntl.flock(handle.fileno(), fcntl.LOCK_EX",
    ),
    (
        # `python -m repro ... > file` loses the buffered report.
        "RES003",
        "__main__.py",
        "import sys\n\nfrom .cli import main\n\nsys.exit(main())",
        "import os\n\nfrom .cli import main\n\nos._exit(main())",
        "os._exit(main())",
    ),
]


@pytest.mark.parametrize(
    ("rule", "relpath", "old", "new", "flagged"), PROBES, ids=[probe[0] for probe in PROBES]
)
def test_probe_mutation_is_flagged(rule, relpath, old, new, flagged):
    source = (SRC / relpath).read_text(encoding="utf-8")
    assert source.count(old) == 1
    mutated = source.replace(old, new)
    line = next(n for n, text in enumerate(mutated.splitlines(), 1) if flagged in text)
    assert (rule, line) in check(mutated, relpath)
    assert check(source, relpath) == []


#: Every real site each rule guards: ``(rule, pattern, replacement)``.  Each
#: match of ``pattern`` in a file of the rule's scope is one case, mutated
#: alone: the checker must report ``rule`` on it, so no site of ``src/repro``
#: uses an idiom the checker cannot see.
SITE_MUTATIONS = [
    # A telemetry read that loses its justification.
    ("DET001", r"[ \t]*# repro-lint: allow\[DET001\]", ""),
    # A seeded stream that loses its seed.
    ("DET004", r"\b(default_rng|SeedSequence|PCG64)\([^()\n]*(\([^()\n]*\))?[^()\n]*\)", r"\1()"),
    # A content hash or derived seed that goes through the salted builtin.
    ("DET005", r"\bhashlib\.blake2b\(|(?<!def )\bderive_seed\(", "hash("),
    # A canonical encoding that loses its key order.
    ("ORD001", r"sort_keys=True", "sort_keys=False"),
    ("ORD001", r"(json\.dumps\(\{[^{}\n]*) in sorted\((\w+)\)", r"\1 in \2"),
    # A store lock that is only ever released by closing the handle.
    ("RES002", r"fcntl\.flock\([^()\n]*(\([^()\n]*\))?[^()\n]*LOCK_UN\)", "None"),
    # An exit that skips the interpreter's shutdown.
    ("RES003", r"\bsys\.exit\(", "import os; os._exit("),
]


def _sites() -> list:
    """One ``pytest.param(rule, relpath, mutated source)`` per real site."""
    cases = []
    for path in sorted(SRC.rglob("*.py")):
        relpath = path.relative_to(SRC).as_posix()
        source = path.read_text(encoding="utf-8")
        for rule, pattern, replacement in SITE_MUTATIONS:
            if not relpath.startswith(SCOPES[rule]) or relpath in EXEMPT.get(rule, ()):
                continue
            for n, match in enumerate(re.finditer(pattern, source), 1):
                mutated = source[: match.start()] + match.expand(replacement) + source[match.end() :]
                cases.append(pytest.param(rule, relpath, mutated, id=f"{rule}-{relpath}-{n}"))
    return cases


SITES = _sites()


@pytest.mark.parametrize(("rule", "relpath", "mutated"), SITES)
def test_every_real_site_is_guarded(rule, relpath, mutated):
    assert rule in {found for found, _line in check(mutated, relpath)}


@pytest.mark.parametrize("rule", sorted(SCOPES))
def test_every_rule_has_cases_and_real_sites(rule):
    flagged = [row for row in RULE_TABLE if rule in row[2]]
    clean = [row for row in RULE_TABLE if rule not in row[2] and row[1].startswith(SCOPES[rule])]
    assert flagged and clean
    assert rule in {probe[0] for probe in PROBES}
    assert any(case.values[0] == rule for case in SITES)


@pytest.mark.parametrize("prefix", _DETERMINISTIC)
def test_deterministic_layers_exist(prefix):
    # A renamed layer would silently drop out of every determinism rule.
    assert (SRC / prefix / "__init__.py").is_file()


@pytest.mark.parametrize("relpath", EXEMPT["DET001"])
def test_exempt_files_read_the_wall_clock(relpath):
    # An exemption that no longer suppresses anything must go.
    source = (SRC / relpath).read_text(encoding="utf-8")
    assert check(source, relpath) == []
    assert "DET001" in {rule for rule, _line in check(source, "campaign/moved.py")}
