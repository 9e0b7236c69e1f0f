"""Tests for the experiment harness (runner + per-figure experiments).

These run at a very small scale so the whole file stays within a few tens of
seconds; the benchmarks regenerate the figures at a more faithful scale.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments

from repro.core.sd_policy import SDPolicyScheduler
from repro.experiments.paper import (
    MAXSD_SETTINGS,
    figure_1_to_3_maxsd_sweep,
    figure_4_to_6_heatmaps,
    figure_7_daily_series,
    figure_8_runtime_models,
    table_1_workloads,
    table_2_application_mix,
)
from repro.experiments.runner import cluster_for, make_scheduler, run_workload
from repro.schedulers.backfill import BackfillScheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.workloads.cirne import CirneWorkloadModel


@pytest.fixture(scope="module")
def workload():
    return CirneWorkloadModel(
        num_jobs=120, system_nodes=24, cpus_per_node=8, max_job_nodes=8,
        target_load=1.05, median_runtime_s=1800.0, seed=17, name="exp_test",
    ).generate()


class TestRunner:
    def test_cluster_for_matches_workload(self, workload):
        cluster = cluster_for(workload)
        assert cluster.num_nodes == workload.system_nodes
        assert cluster.cpus_per_node == workload.cpus_per_node

    def test_cluster_for_odd_node_width(self, workload):
        workload_odd = CirneWorkloadModel(
            num_jobs=5, system_nodes=4, cpus_per_node=7, max_job_nodes=2, seed=1
        ).generate()
        assert cluster_for(workload_odd).cpus_per_node == 7

    def test_make_scheduler_by_name(self):
        assert isinstance(make_scheduler("fcfs"), FCFSScheduler)
        assert isinstance(make_scheduler("static_backfill"), BackfillScheduler)
        assert isinstance(make_scheduler("sd_policy", max_slowdown=5.0), SDPolicyScheduler)

    def test_make_scheduler_passthrough_and_factory(self):
        instance = BackfillScheduler()
        assert make_scheduler(instance) is instance
        assert isinstance(make_scheduler(lambda: FCFSScheduler()), FCFSScheduler)

    def test_make_scheduler_unknown(self):
        with pytest.raises(ValueError):
            make_scheduler("round_robin")

    def test_run_workload_returns_metrics(self, workload):
        run = run_workload(workload, "static_backfill")
        assert run.metrics.num_jobs == len(workload)
        assert run.metrics.makespan > 0
        assert run.wall_clock_seconds >= 0
        assert run.workload_name == workload.name

    def test_run_workload_sd_policy_stats(self, workload):
        run = run_workload(workload, "sd_policy", max_slowdown=math.inf)
        assert "malleable_starts" in run.scheduler_stats
        assert run.metrics.num_jobs == len(workload)

    def test_runtime_model_by_name(self, workload):
        run = run_workload(workload, "sd_policy", runtime_model="worst_case",
                           max_slowdown=math.inf)
        assert run.metrics.num_jobs == len(workload)

    def test_malleable_fraction_zero_disables_malleability(self, workload):
        run = run_workload(workload, "sd_policy", malleable_fraction=0.0,
                           max_slowdown=math.inf)
        assert run.metrics.malleable_scheduled == 0


class TestFigureExperiments:
    def test_maxsd_sweep_structure(self, workload):
        result = figure_1_to_3_maxsd_sweep(
            workload, maxsd_settings={"MAXSD 10": 10.0, "DynAVGSD": "dynamic"}
        )
        assert set(result.data["normalized"]) == {"MAXSD 10", "DynAVGSD"}
        for values in result.data["normalized"].values():
            assert set(values) == {"makespan", "avg_response_time", "avg_slowdown"}
            assert values["avg_slowdown"] <= 1.05  # SD-Policy should not lose badly
        assert "Figure 3" in result.text

    def test_heatmap_experiment(self, workload):
        result = figure_4_to_6_heatmaps(workload, max_slowdown=10.0)
        grids = result.data["grids"]
        assert set(grids) == {"slowdown", "runtime", "wait"}
        assert "Figure 4" in result.text

    def test_daily_series_experiment(self, workload):
        result = figure_7_daily_series(workload, max_slowdown=10.0)
        rows = result.data["rows"]
        assert rows, "expected at least one day of data"
        assert {"day", "static_slowdown", "sd_slowdown", "malleable_jobs"} <= set(rows[0])
        assert 0.0 <= result.data["malleable_fraction"] <= 1.0

    def test_runtime_model_experiment(self, workload):
        result = figure_8_runtime_models({"wl": workload}, max_slowdown="dynamic")
        entry = result.data["per_workload"]["wl"]
        assert set(entry) == {"ideal", "worst_case"}
        # The worst-case model can only be slower or equal for each metric.
        assert entry["worst_case"]["avg_slowdown"] >= entry["ideal"]["avg_slowdown"] - 0.15

    def test_table_1(self):
        result = table_1_workloads(scale=0.01, workload_ids=(3,))
        assert 3 in result.data["rows"]
        assert "Table 1" in result.text

    def test_table_2(self):
        result = table_2_application_mix(scale=0.2)
        shares = result.data["shares"]
        assert abs(sum(shares.values()) - 1.0) < 1e-6
        assert "PILS" in shares

    def test_maxsd_settings_match_paper_labels(self):
        assert set(MAXSD_SETTINGS) == {"MAXSD 5", "MAXSD 10", "MAXSD 50", "MAXSD inf", "DynAVGSD"}


class TestPackageExports:
    def test_every_export_resolves(self):
        for name in repro.experiments.__all__:
            assert getattr(repro.experiments, name) is not None
        with pytest.raises(AttributeError):
            repro.experiments.no_such_export

    def test_importing_the_runner_loads_no_other_harness_module(self):
        src = str(Path(repro.experiments.__file__).resolve().parents[2])
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.experiments.runner; "
             "print(sorted(m for m in sys.modules if m.startswith('repro.experiments.')))"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout.strip()
        assert loaded == "['repro.experiments.runner']"
