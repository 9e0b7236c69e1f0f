"""Experiment harness: the code paths that regenerate each paper table/figure.

:mod:`repro.experiments.runner` runs one workload under one policy and
returns the metrics; :mod:`repro.experiments.sweep` fans independent runs
out over a process pool with a result cache in a pluggable
:mod:`repro.store` backend (local directory, memory, or remote object
store);
:mod:`repro.experiments.scenario` turns a declarative spec (workload ref ×
policy × parameter grid, JSON round-trippable) into sweep tasks and reports;
:mod:`repro.experiments.paper` wraps the built-in scenarios behind every
table and figure of the paper's evaluation (see the experiment index in
DESIGN.md).  The benchmarks and the CLI are thin wrappers around this
package.
"""

import importlib
from typing import Any

#: Public name -> the submodule defining it.  The submodules load on first
#: attribute access (PEP 562), so importing one of them, say
#: :mod:`repro.experiments.runner`, does not load the others.
_EXPORTS = {
    "Executor": "executors",
    "ExecutorError": "executors",
    "MergeExecutor": "executors",
    "ProcessPoolExecutor": "executors",
    "SerialExecutor": "executors",
    "ShardedExecutor": "executors",
    "parse_shard": "executors",
    "FigureResult": "paper",
    "figure_1_to_3_maxsd_sweep": "paper",
    "figure_4_to_6_heatmaps": "paper",
    "figure_7_daily_series": "paper",
    "figure_8_runtime_models": "paper",
    "figure_9_real_run": "paper",
    "table_1_workloads": "paper",
    "table_2_application_mix": "paper",
    "PolicyRun": "runner",
    "cluster_for": "runner",
    "run_workload": "runner",
    "BUILTIN_SCENARIOS": "scenario",
    "ScenarioCell": "scenario",
    "ScenarioError": "scenario",
    "ScenarioOutcome": "scenario",
    "ScenarioSpec": "scenario",
    "WorkloadRef": "scenario",
    "builtin_scenario": "scenario",
    "load_spec": "scenario",
    "render_report": "scenario",
    "run_scenario": "scenario",
    "save_spec": "scenario",
    "SweepEntry": "sweep",
    "SweepError": "sweep",
    "SweepResult": "sweep",
    "SweepRunner": "sweep",
    "SweepTask": "sweep",
    "fingerprint_workload": "sweep",
    "task_cache_key": "sweep",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
