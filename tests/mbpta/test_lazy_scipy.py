"""The simulator does not pay for scipy, and the analysis pays only for
``scipy.special``.

scipy is most of what importing it costs, and only the MBPTA statistics use
it, so they import it where they need it.  A fresh interpreter that imports
``repro`` and simulates one run must leave it unloaded.  The analysis itself
needs ``scipy.special`` alone: ``scipy.stats`` costs about a second and 46 MB
more, and only the rarely taken Gumbel-MLE fallback loads it.
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


ANALYSIS_PROGRAM = """
import sys

import numpy as np

from repro.mbpta import mbpta_from_samples

mbpta_from_samples(np.random.default_rng(1).gumbel(10_000.0, 250.0, 200))
print(",".join(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def loaded_scipy_modules(program: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", program],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return [name for name in done.stdout.strip().split(",") if name]


def test_import_and_one_run_leave_scipy_unloaded():
    assert loaded_scipy_modules(PROGRAM) == []


def test_analysis_leaves_scipy_stats_unloaded():
    loaded = loaded_scipy_modules(ANALYSIS_PROGRAM)
    assert "scipy.special" in loaded
    assert not [name for name in loaded if name.startswith("scipy.stats")]
