"""The scheduling pass's fast paths against slow, obviously-correct oracles.

* :class:`ReferenceReservationMap` is the previous, straightforward profile:
  a sorted change list turned into a NumPy step function, clipped and
  de-duplicated, rebuilt after every mutation.  The in-place
  :class:`ReservationMap` must agree with it exactly on ``earliest_start``,
  ``free_nodes_at`` and ``profile()``.
* :func:`reference_best_combination` enumerates every combination with
  :func:`itertools.combinations`; ``MateSelector._best_combination``, which
  visits only exact node-count matches, must pick the very same candidates.
"""

from __future__ import annotations

import itertools
import math
from bisect import insort
from typing import List, Optional, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mate_selection import MateCandidate, MateSelector
from repro.simulator.reservation import ReservationMap
from tests.conftest import make_job


class ReferenceReservationMap:
    """Availability profile rebuilt from its sorted change list on every read."""

    def __init__(self, total_nodes, now, free_now, releases=()):
        self.total_nodes = total_nodes
        self.now = now
        self._changes: List[Tuple[float, int]] = []
        self._free_now = free_now
        for time, nodes in releases:
            self.add_release(time, nodes)

    def add_release(self, time, nodes):
        if nodes > 0:
            insort(self._changes, (max(time, self.now), nodes))

    def add_reservation(self, start, duration, nodes):
        if nodes <= 0:
            return
        start = max(start, self.now)
        insort(self._changes, (start, -nodes))
        if math.isfinite(duration):
            insort(self._changes, (start + duration, nodes))

    def _arrays(self):
        if not self._changes:
            return np.array([self.now]), np.array([float(self._free_now)])
        times = np.fromiter((t for t, _ in self._changes), dtype=float,
                            count=len(self._changes))
        deltas = np.fromiter((d for _, d in self._changes), dtype=float,
                             count=len(self._changes))
        free = np.clip(self._free_now + np.cumsum(deltas), 0, self.total_nodes)
        times = np.concatenate(([self.now], times))
        free = np.concatenate(([float(self._free_now)], free))
        # Collapse duplicate timestamps (keep the last value at a time).
        keep = np.ones(len(times), dtype=bool)
        keep[:-1] = times[1:] != times[:-1]
        return times[keep], free[keep]

    def free_nodes_at(self, time):
        times, free = self._arrays()
        idx = max(0, int(np.searchsorted(times, time, side="right")) - 1)
        return int(free[idx])

    def profile(self):
        times, free = self._arrays()
        return [(float(t), int(f)) for t, f in zip(times, free)]

    def earliest_start(self, nodes_needed, duration=None):
        if nodes_needed > self.total_nodes:
            return math.inf
        if nodes_needed <= 0:
            return self.now
        times, free = self._arrays()
        n = len(times)
        ok = free >= nodes_needed
        if duration is None or not math.isfinite(duration):
            hits = np.flatnonzero(ok)
            return float(times[hits[0]]) if hits.size else math.inf
        idx = 0
        while idx < n:
            if not ok[idx]:
                idx += 1
                continue
            end = times[idx] + duration
            j = int(np.searchsorted(times, end, side="left"))
            bad = np.flatnonzero(~ok[idx:j])
            if bad.size == 0:
                return float(times[idx])
            # Every start up to the last violation also fails; jump past it.
            idx = idx + int(bad[-1]) + 1
        return math.inf


TOTAL = 8
NOW = 100.0
# A small time grid makes duplicate breakpoints likely; some lie before NOW.
times_st = st.sampled_from([0.0, 50.0, NOW, 100.5, 130.0, 160.0, 200.0, 250.0, 400.0])
durations_st = st.sampled_from([0.0, 0.5, 30.0, 60.0, 100.0, 1000.0, math.inf])
nodes_st = st.integers(0, 3 * TOTAL)  # zero and over-capacity counts included

operations = st.lists(
    st.one_of(
        st.tuples(st.just("release"), times_st, nodes_st),
        st.tuples(st.just("reserve"), times_st, durations_st, nodes_st),
    ),
    max_size=25,
)


def _assert_same(fast: ReservationMap, slow: ReferenceReservationMap) -> None:
    assert fast.profile() == slow.profile()
    for time in (0.0, NOW, 100.25, 130.0, 145.0, 250.0, 1e9):
        assert fast.free_nodes_at(time) == slow.free_nodes_at(time)
    for needed in range(-1, TOTAL + 2):
        for duration in (None, 0.0, 0.5, 29.5, 30.0, 75.0, 300.0, math.inf):
            assert fast.earliest_start(needed, duration) == slow.earliest_start(
                needed, duration
            ), (needed, duration)


@given(
    free_now=st.integers(0, TOTAL),
    releases=st.lists(st.tuples(times_st, nodes_st), max_size=8),
    ops=operations,
)
@settings(max_examples=300, deadline=None)
def test_reservation_map_matches_reference(free_now, releases, ops):
    fast = ReservationMap(TOTAL, NOW, free_now, releases)
    slow = ReferenceReservationMap(TOTAL, NOW, free_now, releases)
    _assert_same(fast, slow)
    for op in ops:
        if op[0] == "release":
            fast.add_release(op[1], op[2])
            slow.add_release(op[1], op[2])
        else:
            fast.add_reservation(op[1], op[2], op[3])
            slow.add_reservation(op[1], op[2], op[3])
        _assert_same(fast, slow)


def test_earliest_start_returns_a_float():
    profile = ReservationMap(4, 0, 0, [(10, 4)])
    start = profile.earliest_start(2, 5.0)
    assert start == 10.0 and type(start) is float


def reference_best_combination(
    candidates, nodes_needed, max_mates, allow_partial_mates
) -> Optional[Tuple[List[MateCandidate], int]]:
    """Every combination of <= max_mates candidates, in itertools order."""
    best = None
    best_pi = math.inf
    n = len(candidates)
    for r in range(1, min(max_mates, n) + 1):
        for combo in itertools.combinations(range(n), r):
            picks = [candidates[i] for i in combo]
            total_nodes = sum(c.weight for c in picks)
            pi = sum(c.penalty for c in picks)
            if pi >= best_pi:
                continue
            if total_nodes == nodes_needed:
                best, best_pi = (picks, 0), pi
            elif allow_partial_mates and r == 1 and total_nodes > nodes_needed:
                best, best_pi = (picks, total_nodes - nodes_needed), pi
    return best


candidate_rows = st.lists(
    st.tuples(
        st.integers(1, 6),
        # Few distinct penalties, so ties between combinations are common.
        st.one_of(st.sampled_from([1.0, 1.25, 1.5, 2.0, 0.1 + 0.2]), st.floats(1.0, 10.0)),
    ),
    max_size=12,
)


@given(
    rows=candidate_rows,
    nodes_needed=st.integers(1, 14),
    max_mates=st.integers(1, 3),
    allow_partial_mates=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_best_combination_matches_itertools_enumeration(
    rows, nodes_needed, max_mates, allow_partial_mates
):
    candidates = [
        MateCandidate(job=make_job(job_id=i + 1, nodes=weight), penalty=penalty, weight=weight)
        for i, (weight, penalty) in enumerate(rows)
    ]
    selector = MateSelector(max_mates=max_mates, allow_partial_mates=allow_partial_mates)
    got = selector._best_combination(candidates, nodes_needed)
    want = reference_best_combination(candidates, nodes_needed, max_mates, allow_partial_mates)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert [id(c) for c in got[0]] == [id(c) for c in want[0]]
        assert got[1] == want[1]
