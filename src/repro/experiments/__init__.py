"""Experiment drivers: one module per table/figure of the paper plus the
ablation sweeps (see DESIGN.md for the experiment index)."""

from .base_policy_sweep import (
    BasePolicyPoint,
    BasePolicySweepResult,
    run_base_policy_sweep,
)
from .figure1 import FIGURE1_CONFIGURATIONS, Figure1Result, run_figure1
from .hcba_sweep import HCBASweepPoint, HCBASweepResult, run_hcba_sweep
from .illustrative import IllustrativeResult, run_illustrative_example
from .mbpta_experiment import MBPTAExperimentResult, run_mbpta_experiment
from .overheads import OverheadResult, run_overheads
from .runner import RepeatedRuns, scale_workload
from .table1 import Table1Result, run_table1

__all__ = [
    "run_base_policy_sweep",
    "BasePolicySweepResult",
    "BasePolicyPoint",
    "run_figure1",
    "Figure1Result",
    "FIGURE1_CONFIGURATIONS",
    "run_illustrative_example",
    "IllustrativeResult",
    "run_table1",
    "Table1Result",
    "run_overheads",
    "OverheadResult",
    "run_mbpta_experiment",
    "MBPTAExperimentResult",
    "run_hcba_sweep",
    "HCBASweepResult",
    "HCBASweepPoint",
    "RepeatedRuns",
    "scale_workload",
]
