"""Discrete-event engine: event types, the event and the event queue.

The engine is intentionally tiny — a binary heap keyed by ``(time, priority,
serial)`` — because the complexity of the reproduction lives in the
schedulers, not in the event plumbing.  Events are never removed from the
heap; instead, components that reschedule work (e.g. a job whose end time
moved because it was shrunk) bump a *serial* number on the job and stale
events are discarded when popped.

The queue additionally deduplicates superseded ``JOB_END`` events itself: it
remembers the newest validity token pushed per payload, so stale end events
are dropped at the heap boundary instead of surfacing into the simulation's
per-instant batches.  On malleable-heavy runs every reconfiguration leaves
one stale end event behind, so this keeps batch collection and sorting
proportional to the *live* event count.  A payload that will push no more
end events (a completed job) is *retired*, and its record is dropped once
its last end event leaves the heap, so the bookkeeping stays proportional
to the payloads in flight rather than to every payload a run has seen.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple


class EventType(enum.IntEnum):
    """Kinds of events the simulation processes.

    The integer values double as tie-break priorities for events that share
    a timestamp: ends are processed before submits so that resources freed
    at time *t* are visible to jobs arriving at *t*, and explicit schedule
    triggers run last once the system state for the instant is settled.
    """

    JOB_END = 0
    JOB_SUBMIT = 1
    SCHEDULE = 2


@dataclass(order=True, slots=True)
class Event:
    """A single simulation event.

    Events order by ``(time, type priority, serial)``; the payload is not
    part of the ordering.
    """

    time: float
    type_priority: int
    serial: int
    event_type: EventType = field(compare=False)
    payload: Any = field(compare=False, default=None)
    # For JOB_END events: the job's ``end_event_serial`` at scheduling time.
    # A mismatch at pop time means the job was reconfigured and this event is
    # stale.
    validity_token: int = field(compare=False, default=0)


class EventQueue:
    """A time-ordered queue of :class:`Event` objects.

    ``JOB_END`` events are deduplicated by validity token: pushing an end
    event for a payload supersedes any previously pushed end event of that
    payload with a lower token, and superseded events are silently dropped
    when they reach the top of the heap.  ``len()`` and truthiness reflect
    only the live (non-superseded) events.
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()
        # payload -> newest validity token pushed for that payload's end.
        self._end_tokens: Dict[Any, int] = {}
        # (payload, token) -> number of such JOB_END events currently in the
        # heap.  Needed so that superseding an end event that was already
        # popped (e.g. reconfigured while its old event sits in the current
        # batch) does not count phantom stale events.
        self._end_counts: Dict[Tuple[Any, int], int] = {}
        # payload -> number of its JOB_END events (any token) in the heap.
        self._end_queued: Dict[Any, int] = {}
        # Retired payloads whose superseded end events are still queued.
        self._retired: Set[Any] = set()
        # Number of superseded JOB_END events still sitting in the heap.
        self._stale = 0

    def __len__(self) -> int:
        return max(0, len(self._heap) - self._stale)

    def __bool__(self) -> bool:
        return len(self._heap) > self._stale

    def _is_stale(self, event: Event) -> bool:
        return (
            event.event_type is EventType.JOB_END
            and self._end_tokens.get(event.payload, event.validity_token)
            != event.validity_token
        )

    def _forget(self, event: Event) -> None:
        """Bookkeeping for a JOB_END event leaving the heap."""
        if event.event_type is not EventType.JOB_END:
            return
        payload = event.payload
        key = (payload, event.validity_token)
        remaining = self._end_counts.get(key, 0) - 1
        if remaining > 0:
            self._end_counts[key] = remaining
        else:
            self._end_counts.pop(key, None)
        queued = self._end_queued.get(payload, 0) - 1
        if queued > 0:
            self._end_queued[payload] = queued
        else:
            self._end_queued.pop(payload, None)
            if payload in self._retired:
                self._retired.discard(payload)
                self._end_tokens.pop(payload, None)

    def retire(self, payload: Any) -> None:
        """Promise that no further ``JOB_END`` event is pushed for ``payload``.

        Its newest-token record is dropped now, or when its last queued
        (superseded) end event leaves the heap.  The simulation retires
        every job as it completes.
        """
        if payload in self._end_queued:
            self._retired.add(payload)
        else:
            self._end_tokens.pop(payload, None)

    def _discard_stale(self) -> None:
        heap = self._heap
        while heap and self._is_stale(heap[0]):
            self._forget(heapq.heappop(heap))
            self._stale = max(0, self._stale - 1)

    def push(
        self,
        time: float,
        event_type: EventType,
        payload: Any = None,
        validity_token: int = 0,
    ) -> Event:
        """Add an event; returns the created :class:`Event`."""
        if time != time or time < 0:  # NaN or negative
            raise ValueError(f"invalid event time {time!r}")
        event = Event(
            time=time,
            type_priority=int(event_type),
            serial=next(self._counter),
            event_type=event_type,
            payload=payload,
            validity_token=validity_token,
        )
        if event_type is EventType.JOB_END:
            prev = self._end_tokens.get(payload)
            if prev is None:
                self._end_tokens[payload] = validity_token
            elif validity_token > prev:
                # Events carrying the previous token that are *still in the
                # heap* become stale (ones already popped contribute zero).
                self._end_tokens[payload] = validity_token
                self._stale += self._end_counts.get((payload, prev), 0)
            elif validity_token < prev:
                # Pushed already-superseded: stale from birth.
                self._stale += 1
            key = (payload, validity_token)
            self._end_counts[key] = self._end_counts.get(key, 0) + 1
            self._end_queued[payload] = self._end_queued.get(payload, 0) + 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event."""
        self._discard_stale()
        event = heapq.heappop(self._heap)
        self._forget(event)
        return event

    def pop_batch(self) -> List[Event]:
        """Pop every live event sharing the earliest timestamp, in order.

        The heap already yields ``(time, type priority, serial)`` order, so
        the returned batch needs no re-sort: within one instant, ends come
        first, then submits, then schedule markers, FIFO within each kind.
        Returns an empty list when no live events remain.
        """
        self._discard_stale()
        heap = self._heap
        if not heap:
            return []
        first_time = heap[0].time
        batch: List[Event] = []
        while heap and heap[0].time == first_time:
            event = heapq.heappop(heap)
            self._forget(event)
            batch.append(event)
            self._discard_stale()
        return batch

    def peek(self) -> Optional[Event]:
        """Return the earliest live event without removing it (or ``None``)."""
        self._discard_stale()
        return self._heap[0] if self._heap else None

    def drain(self) -> Iterator[Event]:
        """Pop every remaining live event in order (used by tests)."""
        while self:
            yield self.pop()
