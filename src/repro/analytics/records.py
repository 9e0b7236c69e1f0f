"""Columnar per-job records: the sink, the schema, and (de)serialization.

The analytics layer keeps what the simulation's metric fold throws away:
one fixed-width row per completed job, in completion order, in a NumPy
structured array (115 bytes/job).  A :class:`JobRecordSink` is attached
to the simulation's job-completion dispatch (``Simulation(...,
sinks=[sink])``) and folds each job exactly once; its derived metric
columns (response, wait, slowdown, bounded slowdown, runtime) come from
:func:`repro.metrics.aggregates.job_metric_values`, the same per-job
helper :class:`repro.metrics.streaming.StreamingMetrics` folds through.

Storing the derived ``float64`` values verbatim is what makes
:func:`metrics_from_records` bit-identical to ``StreamingMetrics``: both
reduce the same values in the same order through
:func:`repro.metrics.aggregates.metrics_from_columns`.

Serialized form (one blob per run)::

    8-byte big-endian header length
    JSON header  {"schema": 1, "rows": N, "meta": {...}}
    the structured array, ``np.save`` format (``allow_pickle=False``)

``meta`` carries the run-level scalars a row-wise schema cannot: the
run's first submit and energy (needed to rebuild
:class:`~repro.metrics.aggregates.WorkloadMetrics` exactly), plus the
sweep coordinates (workload, policy, task key/label, seed, canonical
kwargs) so a store-wide query can filter and group without touching the
cached run blobs.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from repro.metrics.aggregates import (
    WorkloadMetrics,
    job_metric_values,
    metrics_from_columns,
)
from repro.metrics.streaming import ChunkedArray
from repro.simulator.job import Job

__all__ = [
    "JOB_RECORD_DTYPE",
    "RECORD_SCHEMA_VERSION",
    "JobRecordSink",
    "RunRecords",
    "metrics_from_records",
]

#: Bump when the row layout changes; readers reject unknown schemas.
RECORD_SCHEMA_VERSION = 1

#: One row per completed job.  Derived metric columns hold the exact
#: ``float64`` values ``StreamingMetrics.fold`` computes (see module doc).
JOB_RECORD_DTYPE = np.dtype(
    [
        ("job_id", np.int64),
        ("user", np.int32),
        ("group", np.int32),
        ("submit", np.float64),
        ("start", np.float64),
        ("end", np.float64),
        ("requested_nodes", np.int32),
        ("requested_cpus", np.int32),
        ("requested_time", np.float64),
        ("static_runtime", np.float64),
        ("response", np.float64),
        ("wait", np.float64),
        ("runtime", np.float64),
        ("slowdown", np.float64),
        ("bounded_slowdown", np.float64),
        ("cpu_seconds", np.float64),
        ("malleable", np.int8),
        ("scheduled_malleable", np.int8),
        ("was_mate", np.int8),
    ]
)

_HEADER_LEN = struct.Struct(">Q")


class JobRecordSink:
    """A job sink that buffers one structured-array row per completed job.

    Rows go into a :class:`~repro.metrics.streaming.ChunkedArray`, so a
    100-job smoke run costs one small chunk while a million-job replay
    amortises allocation.
    """

    __slots__ = ("_rows",)

    def __init__(self, min_chunk: int = 1024, max_chunk: int = 65536) -> None:
        self._rows = ChunkedArray(JOB_RECORD_DTYPE, min_chunk, max_chunk)

    def __len__(self) -> int:
        return len(self._rows)

    def fold(self, job: Job) -> None:
        """Record one *completed* job (same contract as ``StreamingMetrics``)."""
        response, wait, slowdown, bounded, runtime = job_metric_values(job)
        cpu_seconds = 0.0
        for slot in job.resource_history:
            duration = slot.duration
            if duration > 0 and math.isfinite(duration):
                cpu_seconds += slot.total_cpus * duration
        self._rows.append(
            (
                job.job_id,
                int(job.user),
                int(job.group),
                job.submit_time,
                job.start_time,
                job.end_time,
                job.requested_nodes,
                job.requested_cpus,
                job.requested_time,
                job.static_runtime,
                response,
                wait,
                runtime,
                slowdown,
                bounded,
                cpu_seconds,
                1 if job.malleable else 0,
                1 if job.scheduled_malleable else 0,
                1 if job.was_mate else 0,
            )
        )

    def to_array(self) -> np.ndarray:
        """The recorded rows, in completion order, as one structured array."""
        return self._rows.as_array()

    @property
    def nbytes(self) -> int:
        """Bytes currently allocated (including unfilled chunk headroom)."""
        return self._rows.nbytes


@dataclass
class RunRecords:
    """The per-job records of one run plus its run-level metadata."""

    array: np.ndarray
    meta: Dict[str, Any] = field(default_factory=dict)
    schema: int = RECORD_SCHEMA_VERSION

    def __len__(self) -> int:
        return len(self.array)

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """Serialize: length-prefixed JSON header + ``np.save`` payload."""
        buf = io.BytesIO()
        np.save(buf, np.ascontiguousarray(self.array), allow_pickle=False)
        header = json.dumps(
            {"schema": self.schema, "rows": len(self.array), "meta": self.meta},
            sort_keys=True,
        ).encode("utf-8")
        return _HEADER_LEN.pack(len(header)) + header + buf.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "RunRecords":
        if len(data) < _HEADER_LEN.size:
            raise ValueError("truncated run-records blob")
        (header_len,) = _HEADER_LEN.unpack_from(data)
        end = _HEADER_LEN.size + header_len
        if len(data) < end:
            raise ValueError("truncated run-records header")
        header = json.loads(data[_HEADER_LEN.size : end].decode("utf-8"))
        schema = int(header.get("schema", -1))
        if schema != RECORD_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported run-records schema {schema} "
                f"(this version reads schema {RECORD_SCHEMA_VERSION})"
            )
        array = np.load(io.BytesIO(data[end:]), allow_pickle=False)
        if array.dtype != JOB_RECORD_DTYPE:
            raise ValueError("run-records array has an unexpected dtype")
        rows = int(header.get("rows", -1))
        if rows != len(array):
            raise ValueError(
                f"run-records header promises {rows} rows, array has {len(array)}"
            )
        return cls(array=array, meta=dict(header.get("meta", {})), schema=schema)

    # ------------------------------------------------------------------ #
    def metrics(self) -> WorkloadMetrics:
        return metrics_from_records(self)


def metrics_from_records(records: RunRecords) -> WorkloadMetrics:
    """Rebuild the run's :class:`WorkloadMetrics` from persisted records.

    Bit-identical to ``StreamingMetrics.workload_metrics`` for the same
    run: the derived columns hold the exact folded values in completion
    order, and both go through :func:`~repro.metrics.aggregates
    .metrics_from_columns`.  The run-level makespan origin and energy come
    from ``records.meta`` (``first_submit``, ``energy_joules``) because
    they are not derivable from completed-job rows alone.
    """
    arr = records.array
    first_submit = records.meta.get("first_submit")
    return metrics_from_columns(
        arr,
        malleable_scheduled=int(np.count_nonzero(arr["scheduled_malleable"])),
        mate_jobs=int(np.count_nonzero(arr["was_mate"])),
        origin=(
            float(np.min(arr["submit"], initial=math.inf))
            if first_submit is None
            else float(first_submit)
        ),
        last_end=float(np.max(arr["end"], initial=-math.inf)),
        energy_joules=float(records.meta.get("energy_joules", 0.0)),
    )
