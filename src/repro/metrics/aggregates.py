"""Aggregate scheduling metrics (Section 4 of the paper).

The paper evaluates every experiment with four metrics:

* **Makespan** — last job end time minus first job arrival time.
* **Average response time** — mean of (end − submit) over all jobs.
* **Average slowdown** — mean of (response time / static execution time).
* **Energy consumption** — integrated by
  :meth:`repro.metrics.streaming.StreamingMetrics.energy_joules`.

Every :class:`WorkloadMetrics` is built by one reduction,
:func:`metrics_from_columns`, over per-job metric columns in completion
order.  :func:`job_metric_values` is the one copy of the per-job formulas
that fills those columns at job completion (both
:class:`~repro.metrics.streaming.StreamingMetrics` and
:class:`~repro.analytics.records.JobRecordSink` fold through it), and
:func:`compute_metrics` is the reference oracle over retained
:class:`repro.simulator.job.Job` objects, reading each job's own
properties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.simulator.job import Job

#: Bounded-slowdown threshold (seconds) of the metric suite.
BOUNDED_SLOWDOWN_TAU = 10.0

#: The per-job metric columns, in :func:`job_metric_values` order.
METRIC_COLUMNS = ("response", "wait", "slowdown", "bounded_slowdown", "runtime")


def job_metric_values(job: Job) -> Tuple[float, float, float, float, float]:
    """The :data:`METRIC_COLUMNS` values of one *completed* job.

    Response, wait, slowdown (response over the static runtime), bounded
    slowdown and runtime, each a single IEEE-754 operation so every sink
    that folds a job stores the same ``float64`` values.
    """
    end, start = job.end_time, job.start_time
    if end is None or start is None:
        raise ValueError(f"job {job.job_id} is not completed; cannot fold")
    response = end - job.submit_time
    static = job.static_runtime
    return (
        response,
        start - job.submit_time,
        response / static,
        max(1.0, response / max(static, BOUNDED_SLOWDOWN_TAU)),
        end - start,
    )


@dataclass
class WorkloadMetrics:
    """All aggregate metrics of one run, plus a few useful extras."""

    num_jobs: int
    makespan: float
    avg_response_time: float
    avg_wait_time: float
    avg_slowdown: float
    avg_bounded_slowdown: float
    median_slowdown: float
    p95_slowdown: float
    avg_runtime: float
    malleable_scheduled: int
    mate_jobs: int
    energy_joules: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary form (used by the report/figure helpers)."""
        out = {
            "num_jobs": self.num_jobs,
            "makespan": self.makespan,
            "avg_response_time": self.avg_response_time,
            "avg_wait_time": self.avg_wait_time,
            "avg_slowdown": self.avg_slowdown,
            "avg_bounded_slowdown": self.avg_bounded_slowdown,
            "median_slowdown": self.median_slowdown,
            "p95_slowdown": self.p95_slowdown,
            "avg_runtime": self.avg_runtime,
            "malleable_scheduled": self.malleable_scheduled,
            "mate_jobs": self.mate_jobs,
            "energy_joules": self.energy_joules,
        }
        out.update(self.extra)
        return out


def metrics_from_columns(
    columns: Mapping[str, Union[np.ndarray, Sequence[float]]],
    malleable_scheduled: int,
    mate_jobs: int,
    origin: float,
    last_end: float,
    energy_joules: float = 0.0,
) -> WorkloadMetrics:
    """Reduce per-job metric columns (completion order) to :class:`WorkloadMetrics`.

    ``columns[name]`` holds one value per completed job for every name in
    :data:`METRIC_COLUMNS`.  Each column is reduced as a contiguous
    ``float64`` array, so any producer holding the same values in the same
    order gets bit-identical means (NumPy's pairwise summation depends on
    order and layout, never on where the values came from).  ``origin``
    and ``last_end`` bound the makespan; an empty run yields zero metrics
    (and the given counters and energy).
    """

    def column(name: str) -> np.ndarray:
        return np.ascontiguousarray(columns[name], dtype=np.float64)

    slowdowns = column("slowdown")
    n = len(slowdowns)

    def mean(values: np.ndarray) -> float:
        return float(np.mean(values)) if n else 0.0

    return WorkloadMetrics(
        num_jobs=n,
        makespan=max(0.0, last_end - origin) if n else 0.0,
        avg_response_time=mean(column("response")),
        avg_wait_time=mean(column("wait")),
        avg_slowdown=mean(slowdowns),
        avg_bounded_slowdown=mean(column("bounded_slowdown")),
        median_slowdown=float(np.median(slowdowns)) if n else 0.0,
        p95_slowdown=float(np.percentile(slowdowns, 95)) if n else 0.0,
        avg_runtime=mean(column("runtime")),
        malleable_scheduled=malleable_scheduled,
        mate_jobs=mate_jobs,
        energy_joules=energy_joules,
    )


def compute_metrics(
    jobs: Iterable[Job],
    energy_joules: float = 0.0,
    first_submit: Optional[float] = None,
) -> WorkloadMetrics:
    """Compute the full :class:`WorkloadMetrics` for a set of completed jobs.

    The reference oracle: the per-job values come from each job's own
    properties (not from :func:`job_metric_values`), unfinished jobs are
    skipped, and the columns go through :func:`metrics_from_columns`.
    ``first_submit`` anchors the makespan at the run-level first
    submission; without it the origin is the earliest submit among the
    completed jobs, which drifts late whenever the earliest-submitted job
    never finished.
    """
    columns: Dict[str, List[float]] = {name: [] for name in METRIC_COLUMNS}
    malleable_scheduled = 0
    mate_jobs = 0
    min_submit = math.inf
    max_end = -math.inf
    for job in jobs:
        if job.end_time is None:
            continue
        columns["response"].append(job.response_time)
        columns["wait"].append(job.wait_time)
        columns["slowdown"].append(job.slowdown)
        columns["bounded_slowdown"].append(job.bounded_slowdown(BOUNDED_SLOWDOWN_TAU))
        columns["runtime"].append(job.actual_runtime)
        if job.scheduled_malleable:
            malleable_scheduled += 1
        if job.was_mate:
            mate_jobs += 1
        if job.submit_time < min_submit:
            min_submit = job.submit_time
        if job.end_time > max_end:
            max_end = job.end_time
    return metrics_from_columns(
        columns,
        malleable_scheduled=malleable_scheduled,
        mate_jobs=mate_jobs,
        origin=min_submit if first_submit is None else first_submit,
        last_end=max_end,
        energy_joules=energy_joules,
    )
