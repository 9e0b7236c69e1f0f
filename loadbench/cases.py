"""The benchmark's workloads: how each input is generated and simulated.

Every workload is a list of *cases* (one simulated input each, smallest
first); the last case is the one ``jobs_per_s`` and the pass latencies are
taken from, and the first and last give ``scaling_exponent`` (a single
streaming case gives it from its own halfway time instead).

``--seed 0`` replays each preset trace exactly, and its outputs must equal
the values in ``pins.json``.  Any other seed moves each submit time later by
at most ``MAX_JITTER_S`` (order-preserving, see :func:`jittered`): a
different input with the paper's job mix, offered load and congestion
regime.  Larger perturbations flip the loaded traces between congestion
regimes whose simulation cost differs up to 1.8x (see NOTES.md).
"""

from __future__ import annotations

import functools
import importlib.util
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.core.runtime_model import IdealRuntimeModel
from repro.experiments.runner import cluster_for, make_scheduler, run_workload
from repro.simulator.job import Job
from repro.simulator.simulation import Simulation
from repro.workloads.applications import assign_applications
from repro.workloads.job_record import Workload
from repro.workloads.presets import build_workload

REPO_ROOT = Path(__file__).resolve().parents[1]
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Upper bound of the per-job submit-time perturbation of a non-zero seed.
MAX_JITTER_S = 0.1

#: MAX_SLOWDOWN of every SD/UB-Policy run.
MAX_SLOWDOWN = 10.0


@functools.lru_cache(maxsize=None)
def _load_perf_bench():
    """``benchmarks/perf/bench.py`` as a module (its ``tiled_swf_jobs``)."""
    path = REPO_ROOT / "benchmarks" / "perf" / "bench.py"
    spec = importlib.util.spec_from_file_location("perf_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def jittered(items: Iterable, seed: int) -> Iterator:
    """Yield ``items`` (sorted by ``submit_time``) with perturbed submit times.

    Seed 0 yields them unchanged.  Otherwise each item's submit time moves
    later by a uniform draw of at most ``MAX_JITTER_S`` and at most half the
    gap to the next item, so the sequence stays sorted.  Items are mutated
    in place; pass fresh copies.
    """
    if seed == 0:
        yield from items
        return
    rng = np.random.default_rng(seed)
    previous = None
    for item in items:
        if previous is not None:
            gap = item.submit_time - previous.submit_time
            previous.submit_time += rng.random() * min(MAX_JITTER_S, gap / 2)
            yield previous
        previous = item
    if previous is not None:
        previous.submit_time += rng.random() * MAX_JITTER_S
        yield previous


def _resubmitted(jobs: Iterable[Job]) -> Iterator[Job]:
    """Re-derive the fields a ``Job`` computes from its (jittered) submit time.

    Left at the original submit time, the default FIFO priority would no
    longer equal ``-submit_time`` and ``PendingQueue`` would leave its FIFO
    fast path for good.
    """
    for job in jobs:
        job.priority = -job.submit_time
        job.last_progress_update = job.submit_time
        yield job


@dataclass
class Outcome:
    """What one simulation of one case produced, and how long it took."""

    submitted: int
    completed: int
    makespan: float
    avg_slowdown: float
    stats: Dict[str, int]
    malleable_scheduled: int
    setup_s: float
    sim_s: float
    pass_s: List[float] = field(default_factory=list)
    #: Wall time from the start of the simulation loop until half the jobs
    #: had completed (single-size streaming cases only, else ``None``).
    half_s: Optional[float] = None

    def output(self) -> Dict[str, object]:
        """The values the output check compares (and ``pins.json`` pins)."""
        return {
            "jobs": self.completed,
            "makespan": self.makespan,
            "avg_slowdown": self.avg_slowdown,
            "stats": dict(self.stats),
        }


def _timed_passes(scheduler, samples: List[float]) -> None:
    """Wrap one scheduler instance's ``schedule`` with a wall-clock timer."""
    schedule = scheduler.schedule
    clock = time.perf_counter

    def timed(sim):
        started = clock()
        schedule(sim)
        samples.append(clock() - started)

    scheduler.schedule = timed


@dataclass(frozen=True)
class PresetCase:
    """One paper workload (Table 1 preset) at one scale, via ``run_workload``."""

    label: str
    workload_id: int
    scale: float
    policy: str
    runtime_model: str
    profiles: Optional[str] = None

    def generate(self, seed: int) -> Workload:
        workload = build_workload(self.workload_id, scale=self.scale)
        if self.profiles is not None:
            # The Table 2 application mix (assign_applications' own seed).
            workload = assign_applications(workload)
        records = list(jittered([replace(r) for r in workload.records], seed))
        return Workload(
            name=workload.name,
            records=records,
            system_nodes=workload.system_nodes,
            cpus_per_node=workload.cpus_per_node,
        )

    def simulate(
        self, seed: int, time_passes: bool, generate: Optional[Callable] = None
    ) -> Outcome:
        """Generate the input and simulate it once.

        ``time_passes`` times every scheduling pass; ``generate`` stands in
        for :meth:`generate` (the traced run passes a wrapped one).
        """
        started = time.perf_counter()
        workload = (generate or self.generate)(seed)
        kwargs = {"max_slowdown": MAX_SLOWDOWN}
        if self.profiles is not None:
            kwargs["profiles"] = self.profiles
        scheduler = make_scheduler(self.policy, **kwargs)
        samples: List[float] = []
        if time_passes:
            _timed_passes(scheduler, samples)
        called = time.perf_counter()
        run = run_workload(
            workload,
            policy=scheduler,
            runtime_model=self.runtime_model,
            profiles=self.profiles,
            retain_jobs=False,
        )
        finished = time.perf_counter()
        construction = finished - called - run.wall_clock_seconds - run.phases["metrics"]
        return Outcome(
            submitted=len(workload),
            completed=run.result.num_jobs,
            makespan=run.result.makespan,
            avg_slowdown=run.metrics.avg_slowdown,
            stats=dict(run.scheduler_stats),
            malleable_scheduled=run.result.malleable_scheduled_jobs,
            setup_s=(called - started) + construction,
            sim_s=run.wall_clock_seconds,
            pass_s=samples,
        )


class _HalfwayMark:
    """Completed-job sink noting when half of ``jobs`` have completed."""

    __slots__ = ("remaining", "at")

    def __init__(self, jobs: int) -> None:
        self.remaining = jobs // 2
        self.at: Optional[float] = None

    def fold(self, job) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.at = time.perf_counter()


@dataclass(frozen=True)
class SWFReplayCase:
    """``examples/sample.swf`` tiled end to end, streamed under SD-Policy.

    The replay's load is the same at every length, so instead of a second,
    half-length case its scaling is read off the time at which the first
    half of the jobs had completed (:class:`_HalfwayMark`).
    """

    label: str
    tiles: int

    def generate(self, seed: int):
        workload, stream = _load_perf_bench().tiled_swf_jobs(self.tiles)
        return workload, _resubmitted(jittered(stream, seed))

    def simulate(
        self, seed: int, time_passes: bool, generate: Optional[Callable] = None
    ) -> Outcome:
        """Generate the stream and simulate it once (see :meth:`PresetCase.simulate`)."""
        started = time.perf_counter()
        workload, stream = (generate or self.generate)(seed)
        scheduler = make_scheduler("sd_policy", max_slowdown=MAX_SLOWDOWN)
        samples: List[float] = []
        if time_passes:
            _timed_passes(scheduler, samples)
        submitted = self.tiles * len(workload)
        halfway = _HalfwayMark(submitted)
        sim = Simulation(
            cluster_for(workload),
            scheduler,
            runtime_model=IdealRuntimeModel(),
            retain_jobs=False,
            sinks=(halfway,),
        )
        sim.submit_stream(stream)
        ran = time.perf_counter()
        result = sim.run()
        sim_s = time.perf_counter() - ran
        metrics = sim.streaming.workload_metrics(
            energy_joules=result.energy_joules, first_submit=result.first_submit
        )
        return Outcome(
            submitted=submitted,
            completed=result.num_jobs,
            makespan=result.makespan,
            avg_slowdown=metrics.avg_slowdown,
            stats=dict(scheduler.stats()),
            malleable_scheduled=result.malleable_scheduled_jobs,
            setup_s=ran - started,
            sim_s=sim_s,
            pass_s=samples,
            half_s=None if halfway.at is None else halfway.at - ran,
        )


def w4_case(label: str, scale: float) -> PresetCase:
    return PresetCase(label, 4, scale, "sd_policy", "worst_case")


def w3_case(label: str, scale: float) -> PresetCase:
    return PresetCase(label, 3, scale, "ub_policy", "application_aware", profiles="table2")


#: workload -> cases (smallest first).
WORKLOADS: Dict[str, list] = {
    "w4_sd": [w4_case("x0.005", 0.005), w4_case("x0.01", 0.01)],
    "w3_ub": [w3_case("x0.05", 0.05), w3_case("x0.1", 0.1)],
    "swf_replay": [SWFReplayCase("tiles500", 500)],
}

#: The throwaway simulation run before the clock starts.
WARMUP = {
    "w4_sd": w4_case("x0.0005", 0.0005),
    "w3_ub": w3_case("x0.01", 0.01),
    "swf_replay": SWFReplayCase("tiles1", 1),
}


def load_pins(path: Path = PINS_PATH) -> Dict[str, Dict[str, dict]]:
    return json.loads(path.read_text(encoding="utf-8"))


def check_outcomes(
    workload: str,
    seed: int,
    outcomes: Dict[str, List[Outcome]],
    pins: Dict[str, Dict[str, dict]],
) -> List[str]:
    """Every reason the outputs are wrong (empty when they are right).

    Every submitted job completes; SD/UB-Policy's malleable-start counter
    matches the malleable jobs the metrics folded; repeated simulations of
    one input give identical outputs; and at seed 0 the outputs equal the
    pinned ones — a case without a pin fails rather than passing unchecked.
    """
    problems: List[str] = []
    for label, runs in outcomes.items():
        for outcome in runs:
            if outcome.completed != outcome.submitted:
                problems.append(
                    f"{label}: {outcome.completed} of {outcome.submitted} jobs completed"
                )
            if outcome.stats.get("malleable_starts") != outcome.malleable_scheduled:
                problems.append(
                    f"{label}: {outcome.stats.get('malleable_starts')} malleable starts "
                    f"but {outcome.malleable_scheduled} malleable jobs completed"
                )
            if not (math.isfinite(outcome.avg_slowdown) and outcome.avg_slowdown >= 1.0):
                problems.append(f"{label}: average slowdown {outcome.avg_slowdown}")
        first = runs[0].output()
        if any(outcome.output() != first for outcome in runs[1:]):
            problems.append(f"{label}: repeated simulations of one input differ")
        if seed == 0:
            pinned = pins.get(workload, {}).get(label)
            if pinned is None:
                problems.append(f"{label}: no pinned output for seed 0")
            elif first != pinned:
                problems.append(f"{label}: output {first} != pinned {pinned}")
    return problems
