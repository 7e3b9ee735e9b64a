"""repro — Credit-Based Arbitration (CBA) for fair bus bandwidth sharing.

A production-quality Python reproduction of *"Design and Implementation of a
Fair Credit-Based Bandwidth Sharing Scheme for Buses"* (Slijepcevic,
Hernandez, Abella, Cazorla — DATE 2017): a cycle-accurate model of a 4-core
LEON3-like platform with a non-split shared bus, the slot-fair baseline
arbiters, the credit-based arbitration filter (CBA) and its heterogeneous
variant (H-CBA), the MBPTA/EVT WCET-estimation toolchain, EEMBC-like
workloads, and the experiment harnesses that regenerate every table and
figure of the paper.

Quickstart::

    from repro import cba_config, rp_config, run_max_contention, eembc_workload

    workload = eembc_workload("matrix")
    rp = run_max_contention(workload, rp_config(), seed=1)
    cba = run_max_contention(workload, cba_config(), seed=1)
    print(rp.tua_cycles, cba.tua_cycles)

See ``examples/`` for runnable scripts and ``DESIGN.md`` for the full system
inventory.
"""

from .analysis import fairness_report, jain_index, mean_with_confidence, slowdown
from .arbiters import (
    Arbiter,
    FIFOArbiter,
    FixedPriorityArbiter,
    LotteryArbiter,
    RandomPermutationsArbiter,
    RoundRobinArbiter,
    TDMAArbiter,
    available_policies,
    create_arbiter,
)
from .bus import AccessType, BusMonitor, BusRequest, LatencyTable, SharedBus, TransactionClass
from .core import (
    ArbiterSignalModel,
    ContentionScenario,
    CreditAccount,
    CreditBank,
    CreditBasedArbiter,
    OperatingMode,
)
from .experiments import (
    run_figure1,
    run_hcba_sweep,
    run_illustrative_example,
    run_mbpta_experiment,
    run_overheads,
    run_table1,
)
from .mbpta import MBPTAResult, PWCETCurve, fit_evt, mbpta_from_samples, run_mbpta
from .platform import (
    MulticoreSystem,
    SystemResult,
    cba_config,
    config_by_label,
    hcba_config,
    rp_config,
    run_isolation,
    run_max_contention,
    run_multiprogram,
    run_wcet_estimation,
)
from .sim import (
    BusTimings,
    CacheGeometry,
    CBAParameters,
    Clock,
    Component,
    Kernel,
    PlatformConfig,
    RandomStreams,
)
from .workloads import (
    FIGURE1_BENCHMARKS,
    WorkloadSpec,
    available_benchmarks,
    available_workloads,
    eembc_workload,
    workload_by_name,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # sim
    "Kernel",
    "Clock",
    "Component",
    "RandomStreams",
    "PlatformConfig",
    "CBAParameters",
    "BusTimings",
    "CacheGeometry",
    # bus
    "SharedBus",
    "BusRequest",
    "AccessType",
    "LatencyTable",
    "TransactionClass",
    "BusMonitor",
    # arbiters
    "Arbiter",
    "RoundRobinArbiter",
    "FIFOArbiter",
    "TDMAArbiter",
    "LotteryArbiter",
    "RandomPermutationsArbiter",
    "FixedPriorityArbiter",
    "create_arbiter",
    "available_policies",
    # core (CBA)
    "CreditAccount",
    "CreditBank",
    "CreditBasedArbiter",
    "ArbiterSignalModel",
    "OperatingMode",
    "ContentionScenario",
    # platform
    "MulticoreSystem",
    "SystemResult",
    "rp_config",
    "cba_config",
    "hcba_config",
    "config_by_label",
    "run_isolation",
    "run_max_contention",
    "run_wcet_estimation",
    "run_multiprogram",
    # workloads
    "WorkloadSpec",
    "eembc_workload",
    "workload_by_name",
    "available_benchmarks",
    "available_workloads",
    "FIGURE1_BENCHMARKS",
    # mbpta
    "MBPTAResult",
    "PWCETCurve",
    "run_mbpta",
    "mbpta_from_samples",
    "fit_evt",
    # analysis
    "slowdown",
    "jain_index",
    "fairness_report",
    "mean_with_confidence",
    # experiments
    "run_figure1",
    "run_illustrative_example",
    "run_table1",
    "run_overheads",
    "run_mbpta_experiment",
    "run_hcba_sweep",
]
