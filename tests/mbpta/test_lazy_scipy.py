"""The simulator does not pay for scipy.

scipy is most of what importing it costs, and only the MBPTA statistics use
it, so they import it where they need it.  A fresh interpreter that imports
``repro`` and simulates one run must leave it unloaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROGRAM = """
import sys

import repro
from repro.platform.presets import rp_config
from repro.platform.scenarios import run_isolation
from repro.workloads.synthetic import streaming_workload

run_isolation(streaming_workload(num_accesses=50), rp_config(), seed=1)
print(",".join(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_import_and_one_run_leave_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
