"""In-memory span recording around the simulator's public calls.

A :class:`SpanRecorder` wraps functions from outside the program: every call
of a wrapped function records one span (name, start, end, parent).  Spans
are kept in compact arrays while the run lasts and reduced to per-name
counts, total time and self time when it ends (:meth:`SpanRecorder.summary`);
:meth:`SpanRecorder.save` writes them out as one ``.npz`` file.

Calls are single-threaded and strictly nested, so a span's children never
overlap each other: self time is the span's duration minus the summed
durations of its children (:func:`self_times`).
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np


def self_times(starts, ends, parents) -> np.ndarray:
    """Self time of every span: duration minus the time its children cover.

    ``parents[i]`` is the index of span *i*'s parent, or -1 for a root.
    Each child's interval is clipped to its parent's, so a child that
    outlives its parent (impossible for nested calls) cannot make a self
    time negative through time it did not share with the parent.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    durations = ends - starts
    has_parent = parents >= 0
    child = np.flatnonzero(has_parent)
    parent = parents[child]
    covered = np.minimum(ends[child], ends[parent]) - np.maximum(starts[child], starts[parent])
    child_time = np.bincount(
        parent, weights=np.maximum(covered, 0.0), minlength=len(durations)
    )
    return durations - child_time


class SpanRecorder:
    """Records one span per call of every function it wrapped."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.kind)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable] = None,
    ) -> Callable:
        """Return ``fn`` wrapped so each call records a span called ``name``.

        ``observe(args, result)``, if given, runs after the call returns
        (outside the span's interval) so it can count what the call saw or
        produced.
        """
        nid = self.name_id(name)
        kind, start, end, parent, stack = self.kind, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name ``{"count", "total_s", "self_s"}`` over every span."""
        kinds, starts, ends, parents = self._columns()
        selfs = self_times(starts, ends, parents)
        n = len(self.names)
        counts = np.bincount(kinds, minlength=n)
        totals = np.bincount(kinds, weights=ends - starts, minlength=n)
        self_sums = np.bincount(kinds, weights=selfs, minlength=n)
        return {
            name: {
                "count": int(counts[i]),
                "total_s": float(totals[i]),
                "self_s": float(self_sums[i]),
            }
            for i, name in enumerate(self.names)
        }

    def _columns(self):
        """(kind, start, end, parent) as numpy views of the recorded spans."""
        return (
            np.frombuffer(self.kind, dtype=np.int32),
            np.frombuffer(self.start, dtype=float),
            np.frombuffer(self.end, dtype=float),
            np.frombuffer(self.parent, dtype=np.int64),
        )

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        kinds, _, _, parents = self._columns()
        is_child = (kinds == self._ids[child_name]) & (parents >= 0)
        return int(np.count_nonzero(kinds[parents[is_child]] == self._ids[parent_name]))

    def save(self, path: Path) -> None:
        """Write every span (name table plus the four columns) to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        kind, start, end, parent = self._columns()
        np.savez_compressed(
            path, names=np.array(self.names), kind=kind, start=start, end=end, parent=parent
        )

