"""Future-availability profile ("reservation map").

The scheduler needs two forward-looking quantities:

* ``estimate_start_time`` — when would a job of ``W`` nodes be able to start,
  given the *predicted* end times of the jobs currently running (SLURM, like
  the paper, predicts with the user-requested wall time)?  SD-Policy uses
  this to compute ``static_end`` (Listing 1).
* a *shadow* reservation for every waiting job examined by the backfill
  pass, so lower-priority jobs can only start now when they do not delay a
  higher-priority one (conservative backfill, SLURM ``sched/backfill``
  style).

Both are answered by :class:`ReservationMap`, a step-function profile of
free-node counts over future time built from the running jobs plus any
explicit reservations added during a backfill pass.  ``earliest_start``
sits on the simulator's hottest path (once per examined job per scheduling
pass, with a reservation added after most of them), so the step function is
kept as two parallel lists updated in place: each release or reservation
inserts its breakpoints and adds its node count over the affected range,
instead of rebuilding the profile from its change list.

The simulation driver keeps the running jobs' requested ends, with their
node totals, sorted as jobs start, end and are reconfigured, so each
scheduling pass gets a fresh base profile through :meth:`from_steps`
without visiting the running jobs.  :meth:`from_running_jobs` builds the
same profile from the jobs themselves: the slow reference the driver's
index is tested against.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

from repro.simulator.job import Job, JobState


class ReservationMap:
    """Step-function profile of future node availability.

    Parameters
    ----------
    total_nodes:
        Number of nodes in the cluster.
    now:
        Current simulation time; the profile starts at this instant.
    free_now:
        Number of nodes free at ``now``.
    releases:
        Iterable of ``(time, nodes)`` pairs: at ``time``, ``nodes`` nodes are
        expected to become free (a running job's predicted end).
    """

    def __init__(
        self,
        total_nodes: int,
        now: float,
        free_now: int,
        releases: Iterable[Tuple[float, int]] = (),
    ) -> None:
        if free_now < 0 or free_now > total_nodes:
            raise ValueError(f"free_now={free_now} out of range 0..{total_nodes}")
        self.total_nodes = total_nodes
        self.now = now
        merged: Dict[float, int] = {}
        for time, nodes in releases:
            if nodes > 0:
                time = float(max(time, now))
                merged[time] = merged.get(time, 0) + nodes
        # Breakpoint times (unique, increasing, the first one ``now``) and
        # the free-node count from each breakpoint to the next.  The counts
        # are *unclipped* cumulative sums — over-capacity releases or
        # overlapping reservations may push them outside ``0..total_nodes``
        # — and are clipped only when read.
        self._times: List[float] = [float(now)]
        self._free: List[int] = [free_now]
        free = free_now
        for time in sorted(merged):
            free += merged[time]
            if time == self._times[-1]:
                self._free[-1] = free
            else:
                self._times.append(time)
                self._free.append(free)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_running_jobs(
        cls,
        total_nodes: int,
        now: float,
        free_now: int,
        running_jobs: Iterable[Job],
    ) -> "ReservationMap":
        """Build the profile from the currently running jobs.

        Each running job's end is predicted as ``start + requested_time``
        (what a real scheduler can know, as in SLURM).
        """
        releases: List[Tuple[float, int]] = []
        for job in running_jobs:
            if job.state is not JobState.RUNNING or job.start_time is None:
                continue
            releases.append((job.start_time + job.requested_time, len(job.allocated_nodes)))
        return cls(total_nodes, now, free_now, releases)

    @classmethod
    def from_steps(
        cls, total_nodes: int, now: float, times: List[float], free: List[int]
    ) -> "ReservationMap":
        """Adopt a ready step function (no validation, the lists are not copied).

        ``times`` are the unique, increasing breakpoints, the first one
        ``float(now)``; ``free[k]`` is the free-node count from ``times[k]``
        to the next breakpoint.
        """
        profile = cls.__new__(cls)
        profile.total_nodes = total_nodes
        profile.now = now
        profile._times = times
        profile._free = free
        return profile

    def _breakpoint(self, time: float) -> int:
        """Index of the breakpoint at ``time`` (``>= now``), inserted if absent.

        A new breakpoint carries the count in force just before it.
        """
        times = self._times
        i = bisect_left(times, time)
        if i == len(times) or times[i] != time:
            times.insert(i, time)
            self._free.insert(i, self._free[i - 1])
        return i

    def _add(self, start: int, stop: int, nodes: int) -> None:
        """Add ``nodes`` to the counts of breakpoints ``start..stop-1``."""
        free = self._free
        for k in range(start, stop):
            free[k] += nodes

    def add_release(self, time: float, nodes: int) -> None:
        """Record that ``nodes`` nodes become free at ``time``."""
        if nodes <= 0:
            return
        self._add(self._breakpoint(float(max(time, self.now))), len(self._free), nodes)

    def add_reservation(self, start: float, duration: float, nodes: int) -> None:
        """Reserve ``nodes`` nodes in ``[start, start+duration)``.

        Used during a backfill pass to account for jobs the current pass has
        already decided to start (or reserved a future slot for), so later
        candidates in the same pass see a consistent picture.  An infinite
        ``duration`` holds the nodes for ever.
        """
        if nodes <= 0:
            return
        if duration < 0:
            raise ValueError(f"reservation duration {duration} is negative")
        start = float(max(start, self.now))
        i = self._breakpoint(start)
        if math.isfinite(duration):
            stop = self._breakpoint(start + duration)
        else:
            stop = len(self._free)
        self._add(i, stop, -nodes)

    # ------------------------------------------------------------------ #
    def free_nodes_at(self, time: float) -> int:
        """Free-node count at a given future time (according to the profile)."""
        idx = max(0, bisect_right(self._times, time) - 1)
        return min(max(self._free[idx], 0), self.total_nodes)

    def profile(self) -> List[Tuple[float, int]]:
        """The availability step function as ``[(time, free_nodes), ...]``.

        The first entry is at :attr:`now`; subsequent entries are change
        points in increasing time order.
        """
        total = self.total_nodes
        return [(t, min(max(f, 0), total)) for t, f in zip(self._times, self._free)]

    def earliest_start(self, nodes_needed: int, duration: Optional[float] = None) -> float:
        """Earliest time at which ``nodes_needed`` nodes are simultaneously free.

        If ``duration`` is given, the availability must hold for the whole
        interval ``[t, t + duration)`` (needed to honour reservations that
        temporarily take nodes away).  Returns ``math.inf`` when the request
        can never be satisfied (more nodes than the cluster has, or the
        profile never frees enough).

        Only the first breakpoint of a run of breakpoints offering enough
        nodes can be the answer: a later start inside the same run meets
        every shortfall the run's first start meets.  For
        ``0 < nodes_needed <= total_nodes`` comparing the unclipped counts
        gives the same answer as comparing clipped ones.
        """
        if nodes_needed > self.total_nodes:
            return math.inf
        if nodes_needed <= 0:
            return self.now
        times, free = self._times, self._free
        if duration is None or not math.isfinite(duration):
            for time, count in zip(times, free):
                if count >= nodes_needed:
                    return time
            return math.inf
        last = len(times) - 1
        start: Optional[float] = None
        end = 0.0
        for k in range(last + 1):
            if free[k] < nodes_needed:
                start = None
                continue
            if start is None:
                start = times[k]
                end = start + duration
            if k == last or times[k + 1] >= end:
                return start
        return math.inf
