"""``python -m repro`` and ``python -m repro.fuzz`` as a user runs them.

Output redirected to a file is block-buffered, so an entry point that leaves
the process without the interpreter's shutdown (``os._exit``, say) loses the
whole report while every in-process test of ``main`` still passes.  The
children run without ``PYTHONUNBUFFERED``, which would hide that loss.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS_FILE = str(REPO_ROOT / "tests" / "fuzz" / "corpus" / "closed-form-hcba-caps.json")

#: ``(module run with -m, argv)``: cheap commands of both entry points.
COMMANDS = [
    ("repro", ["list-workloads"]),
    ("repro", ["table1", "--quiet"]),
    ("repro", ["illustrative", "--quiet"]),
    ("repro", ["overheads", "--quiet"]),
    ("repro", ["hcba-sweep", "--quiet"]),
    ("repro", ["mbpta", "--quiet"]),
    ("repro", ["fuzz", "replay", CORPUS_FILE]),
    ("repro.fuzz", ["replay", CORPUS_FILE]),
]


@pytest.mark.parametrize(
    ("module", "argv"), COMMANDS, ids=[f"{module}-{argv[0]}" for module, argv in COMMANDS]
)
def test_redirected_output_is_the_in_process_output(module, argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main = importlib.import_module(f"{module}.cli").main
    status = main(argv)
    expected = capsys.readouterr().out
    assert expected

    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    existing = env.get("PYTHONPATH")
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    report = tmp_path / "report.txt"
    with report.open("w", encoding="utf-8") as handle:
        done = subprocess.run(
            [sys.executable, "-m", module, *argv],
            stdout=handle,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=tmp_path,
            timeout=120,
            check=False,
        )
    assert done.returncode == status, done.stderr
    assert report.read_text(encoding="utf-8") == expected
