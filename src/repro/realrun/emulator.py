"""The emulated MareNostrum4 real run (Figure 9).

:class:`RealRunEmulator` replays the paper's workload 5 (2000 Cirne-model
jobs converted into PILS/STREAM/CoreNeuron/NEST/Alya submissions) on a
49-node system twice — once under static backfill and once under SD-Policy —
using the application-aware runtime and energy models, and reports the
percentage improvements the paper plots in Figure 9 (makespan, average
response time, average slowdown, energy).  The static/SD pair is expressed
as a declarative scenario and fans out through the parallel sweep runner
(both runs hit the on-disk result cache when one is configured).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.metrics.aggregates import WorkloadMetrics
from repro.metrics.energy import LinearPowerModel
from repro.simulator.job import Job
from repro.workloads.job_record import Workload
from repro.workloads.presets import workload_5


@dataclass
class RealRunOutcome:
    """Results of the static-vs-SD comparison on the emulated system."""

    improvements: Dict[str, float]
    static_metrics: WorkloadMetrics
    sd_metrics: WorkloadMetrics
    better_runtime_jobs: int
    malleable_scheduled: int
    static_jobs: List[Job] = field(default_factory=list)
    sd_jobs: List[Job] = field(default_factory=list)
    wall_clock_seconds: float = 0.0


class RealRunEmulator:
    """Run the real-run experiment at a configurable scale.

    Parameters
    ----------
    scale:
        Fraction of the paper's 2000-job / 49-node configuration.
    sharing_factor / max_slowdown:
        SD-Policy configuration (paper: SharingFactor 0.5).
    contention_coefficient:
        Strength of the memory-contention term of the interference model.
    seed:
        Workload generation seed.
    """

    def __init__(
        self,
        scale: float = 1.0,
        sharing_factor: float = 0.5,
        max_slowdown: Union[float, str] = "dynamic",
        contention_coefficient: float = 0.15,
        power_model: Optional[LinearPowerModel] = None,
        seed: int = 5005,
        workload: Optional[Workload] = None,
    ) -> None:
        self.scale = scale
        self.sharing_factor = sharing_factor
        self.max_slowdown = max_slowdown
        self.contention_coefficient = contention_coefficient
        self.power_model = power_model or LinearPowerModel()
        self.seed = seed
        self.workload = workload if workload is not None else workload_5(scale=scale, seed=seed)

    @staticmethod
    def _better_runtime_jobs(jobs: List[Job]) -> int:
        """Count malleable-scheduled jobs whose runtime, proportioned to the
        resources they actually used, beats the static execution.

        This is the paper's "449 jobs out of 539 scheduled with malleability
        have a better runtime compared to the static execution, if we
        proportionate it to the number of used resources" statistic.
        """
        better = 0
        for job in jobs:
            if not job.scheduled_malleable or job.actual_runtime is None:
                continue
            # CPU-seconds actually consumed versus the static execution.
            consumed = sum(
                slot.total_cpus * slot.duration
                for slot in job.resource_history
                if slot.duration > 0 and slot.duration != float("inf")
            )
            static_consumption = job.static_runtime * job.requested_cpus
            if consumed < static_consumption:
                better += 1
        return better

    # ------------------------------------------------------------------ #
    def scenario_spec(self):
        """The declarative scenario describing this emulation's run pair."""
        from repro.experiments.scenario import builtin_scenario
        from repro.core.contention import DEFAULT_CONTENTION_COEFFICIENT

        spec = builtin_scenario(
            "figure9",
            scale=self.scale,
            seed=self.seed,
            sharing_factor=self.sharing_factor,
            max_slowdown=self.max_slowdown,
        )
        if self.contention_coefficient != DEFAULT_CONTENTION_COEFFICIENT:
            spec.base["contention_coefficient"] = self.contention_coefficient
            spec.baseline["kwargs"]["contention_coefficient"] = self.contention_coefficient
        return spec

    def compare(self, runner=None) -> RealRunOutcome:
        """Run static backfill and SD-Policy and compute the improvements.

        ``runner`` is an optional :class:`repro.experiments.sweep.SweepRunner`
        controlling the fan-out (worker count, result cache).  A runner with
        a sharded executor is rejected: the comparison needs both runs, so
        finish every shard and pass an unsharded runner (same cache dir).
        """
        from repro.experiments.scenario import realrun_improvements, run_scenario
        from repro.experiments.sweep import ExecutorError

        started = time.perf_counter()
        outcome = run_scenario(self.scenario_spec(), runner=runner, workloads=self.workload)
        if not outcome.complete:
            sweep = outcome.sweep
            raise ExecutorError(
                f"real-run comparison needs the full static/SD pair but the "
                f"sharded runner completed only {len(sweep)}/{sweep.total_tasks} "
                "tasks; run the remaining shards, then compare with an "
                "unsharded runner against the same cache dir"
            )
        stats = realrun_improvements(outcome, power_model=self.power_model)
        return RealRunOutcome(
            improvements=stats["improvements"],
            static_metrics=stats["static_metrics"],
            sd_metrics=stats["sd_metrics"],
            better_runtime_jobs=stats["better_runtime_jobs"],
            malleable_scheduled=stats["malleable_scheduled"],
            static_jobs=stats["static_jobs"],
            sd_jobs=stats["sd_jobs"],
            wall_clock_seconds=time.perf_counter() - started,
        )
