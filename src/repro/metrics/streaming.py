"""Streaming (online) aggregation of the paper's metrics.

:class:`StreamingMetrics` is the simulator's job-completion accumulator and
the only producer of a simulation's
:class:`~repro.metrics.aggregates.WorkloadMetrics` and energy.  It folds
each job *once, at completion time* into

* O(1) scalar state — sequential sums for the mean response/wait/slowdown
  (exactly the summation order
  :meth:`repro.simulator.simulation.Simulation.result` uses), first-submit /
  last-end extrema for the makespan, malleable/mate counters, and the
  per-slot CPU-second running sum behind the energy figure — and
* one compact chunked row of the per-job metric columns
  (:data:`~repro.metrics.aggregates.METRIC_COLUMNS`, 40 bytes per job
  instead of a retained :class:`~repro.simulator.job.Job` object), from
  which :func:`~repro.metrics.aggregates.metrics_from_columns` computes the
  means and the exact slowdown median/p95.

The columns exist for bit-identity: NumPy's pairwise summation is *not*
reproducible from a single running scalar sum, but reducing the same values
in the same (completion) order is — so ``workload_metrics`` matches the
:func:`~repro.metrics.aggregates.compute_metrics` oracle bit for bit, which
the property suite asserts on every workload preset.

With ``Simulation(..., retain_jobs=False)`` the driver folds each job here
and then discards it, so a million-job replay holds the metric rows
(~40 bytes/job) instead of the full per-job state (resource histories,
per-node CPU maps — kilobytes per job).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.metrics.aggregates import (
    METRIC_COLUMNS,
    WorkloadMetrics,
    job_metric_values,
    metrics_from_columns,
)
from repro.simulator.job import Job

__all__ = ["ChunkedArray", "StreamingMetrics"]

#: One :class:`StreamingMetrics` row: the per-job metric columns.
METRIC_ROW_DTYPE = np.dtype([(name, np.float64) for name in METRIC_COLUMNS])


class ChunkedArray:
    """An append-only one-dimensional array of ``dtype``, grown in chunks.

    Chunks double from ``min_chunk`` up to ``max_chunk`` entries, so tiny
    runs stay tiny while million-entry runs amortise allocation; the full
    array (for NumPy reductions) is materialised only on request.  With a
    structured ``dtype`` each appended value is one row tuple, and
    ``buffer[name]`` gathers a single field.
    """

    __slots__ = ("dtype", "_chunks", "_current", "_fill", "_min_chunk", "_max_chunk")

    def __init__(
        self, dtype=np.float64, min_chunk: int = 1024, max_chunk: int = 65536
    ) -> None:
        if min_chunk <= 0 or max_chunk < min_chunk:
            raise ValueError(f"invalid chunk sizes {min_chunk}/{max_chunk}")
        self.dtype = np.dtype(dtype)
        self._chunks: List[np.ndarray] = []
        self._current: Optional[np.ndarray] = None
        self._fill = 0
        self._min_chunk = min_chunk
        self._max_chunk = max_chunk

    def __len__(self) -> int:
        return sum(len(c) for c in self._chunks) + self._fill

    def append(self, value) -> None:
        current = self._current
        if current is None or self._fill == len(current):
            if current is not None:
                self._chunks.append(current)
            size = (
                self._min_chunk
                if current is None
                else min(self._max_chunk, 2 * len(current))
            )
            current = self._current = np.empty(size, dtype=self.dtype)
            self._fill = 0
        current[self._fill] = value
        self._fill += 1

    def _parts(self) -> List[np.ndarray]:
        parts = list(self._chunks)
        if self._current is not None and self._fill:
            parts.append(self._current[: self._fill])
        return parts

    def as_array(self) -> np.ndarray:
        """The buffered values, in append order, as one contiguous array."""
        parts = self._parts()
        if not parts:
            return np.empty(0, dtype=self.dtype)
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def __getitem__(self, name: str) -> np.ndarray:
        """One field of a structured buffer, in append order, contiguous."""
        parts = [part[name] for part in self._parts()]
        if not parts:
            return np.empty(0, dtype=self.dtype[name])
        return np.concatenate(parts)

    @property
    def nbytes(self) -> int:
        """Bytes currently allocated (including unfilled chunk headroom)."""
        total = sum(c.nbytes for c in self._chunks)
        if self._current is not None:
            total += self._current.nbytes
        return total


class StreamingMetrics:
    """Online accumulator of every aggregate the paper reports.

    ``fold(job)`` must be called exactly once per completed job, in
    completion order (the order ``Simulation.completed`` would have); all
    derived quantities are then available without the job objects.
    """

    __slots__ = (
        "count",
        "sum_response",
        "sum_slowdown",
        "sum_wait",
        "min_submit",
        "max_end",
        "malleable_scheduled",
        "mate_jobs",
        "dynamic_cpu_seconds",
        "_rows",
    )

    def __init__(self) -> None:
        self.count = 0
        # Sequential scalar sums — the summation order of Simulation.result().
        self.sum_response = 0.0
        self.sum_slowdown = 0.0
        self.sum_wait = 0.0
        # Extrema over the *folded* jobs (the run-level first submit, which
        # also covers jobs that never complete, is the simulation's).
        self.min_submit = math.inf
        self.max_end = 0.0
        self.malleable_scheduled = 0
        self.mate_jobs = 0
        # CPU-second integral of the resource histories, summed slot by slot
        # in (job completion, slot) order.
        self.dynamic_cpu_seconds = 0.0
        self._rows = ChunkedArray(METRIC_ROW_DTYPE)

    # ------------------------------------------------------------------ #
    def fold(self, job: Job) -> None:
        """Fold one *completed* job into the accumulator."""
        row = job_metric_values(job)
        response, wait, slowdown = row[0], row[1], row[2]
        self.count += 1
        self.sum_response += response
        self.sum_slowdown += slowdown
        self.sum_wait += wait
        if job.submit_time < self.min_submit:
            self.min_submit = job.submit_time
        if job.end_time > self.max_end:
            self.max_end = job.end_time
        if job.scheduled_malleable:
            self.malleable_scheduled += 1
        if job.was_mate:
            self.mate_jobs += 1
        self._rows.append(row)
        for slot in job.resource_history:
            duration = slot.duration
            if duration > 0 and math.isfinite(duration):
                self.dynamic_cpu_seconds += slot.total_cpus * duration

    # ------------------------------------------------------------------ #
    def energy_joules(
        self,
        num_nodes: int,
        cpus_per_node: int,
        idle_watts: float,
        peak_watts: float,
        first_submit: float,
        last_end: float,
    ) -> float:
        """Workload energy: idle power of every node over the makespan
        window plus the dynamic power of every folded CPU-second.

        Integrated from the completed jobs' resource histories, so the
        figure is independent of how simulation events happened to be
        ordered (in particular of stale end events left in the heap after
        reconfigurations).
        """
        if not self.count or last_end <= first_submit:
            return 0.0
        idle_energy = num_nodes * idle_watts * (last_end - first_submit)
        per_cpu = (peak_watts - idle_watts) / cpus_per_node
        return idle_energy + per_cpu * self.dynamic_cpu_seconds

    def workload_metrics(
        self, energy_joules: float = 0.0, first_submit: Optional[float] = None
    ) -> WorkloadMetrics:
        """The full :class:`WorkloadMetrics` of the folded jobs.

        The makespan origin is ``first_submit`` (the run-level first
        submission) when given, else the earliest folded submit.
        """
        return metrics_from_columns(
            self._rows,
            malleable_scheduled=self.malleable_scheduled,
            mate_jobs=self.mate_jobs,
            origin=self.min_submit if first_submit is None else first_submit,
            last_end=self.max_end,
            energy_joules=energy_joules,
        )

    @property
    def buffer_bytes(self) -> int:
        """Bytes held by the metric rows (the streaming mode's O(n) part)."""
        return self._rows.nbytes
