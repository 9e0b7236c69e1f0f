"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulator.engine import EventQueue, EventType


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(10.0, EventType.JOB_SUBMIT, payload="b")
        q.push(5.0, EventType.JOB_SUBMIT, payload="a")
        q.push(20.0, EventType.JOB_SUBMIT, payload="c")
        assert [e.payload for e in q.drain()] == ["a", "b", "c"]

    def test_tie_break_ends_before_submits(self):
        q = EventQueue()
        q.push(10.0, EventType.JOB_SUBMIT, payload="submit")
        q.push(10.0, EventType.JOB_END, payload="end")
        assert q.pop().payload == "end"
        assert q.pop().payload == "submit"

    def test_schedule_events_last_at_same_time(self):
        q = EventQueue()
        q.push(1.0, EventType.SCHEDULE, payload="sched")
        q.push(1.0, EventType.JOB_END, payload="end")
        q.push(1.0, EventType.JOB_SUBMIT, payload="submit")
        assert [e.payload for e in q.drain()] == ["end", "submit", "sched"]

    def test_fifo_within_same_time_and_type(self):
        q = EventQueue()
        q.push(3.0, EventType.JOB_SUBMIT, payload=1)
        q.push(3.0, EventType.JOB_SUBMIT, payload=2)
        q.push(3.0, EventType.JOB_SUBMIT, payload=3)
        assert [e.payload for e in q.drain()] == [1, 2, 3]

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        assert len(q) == 0
        q.push(1.0, EventType.SCHEDULE)
        assert q
        assert len(q) == 1

    def test_peek_does_not_remove(self):
        q = EventQueue()
        q.push(1.0, EventType.SCHEDULE, payload="x")
        assert q.peek().payload == "x"
        assert len(q) == 1

    def test_peek_empty_returns_none(self):
        assert EventQueue().peek() is None

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, EventType.SCHEDULE)

    def test_rejects_nan_time(self):
        with pytest.raises(ValueError):
            EventQueue().push(float("nan"), EventType.SCHEDULE)

    def test_validity_token_carried(self):
        q = EventQueue()
        event = q.push(1.0, EventType.JOB_END, payload=1, validity_token=7)
        assert event.validity_token == 7


class TestEndEventDedup:
    def test_superseded_end_is_dropped(self):
        q = EventQueue()
        q.push(10.0, EventType.JOB_END, payload=1, validity_token=0)
        q.push(20.0, EventType.JOB_END, payload=1, validity_token=1)
        assert len(q) == 1
        event = q.pop()
        assert event.time == 20.0 and event.validity_token == 1
        assert not q

    def test_supersede_after_pop_does_not_overcount(self):
        """Superseding an end event already popped into a batch must not make
        the queue report empty while live events remain (regression)."""
        q = EventQueue()
        q.push(5.0, EventType.JOB_END, payload=1, validity_token=0)
        q.push(5.0, EventType.JOB_END, payload=2, validity_token=0)
        assert {q.pop().payload, q.pop().payload} == {1, 2}  # batch of two
        # Job 2 is reconfigured while its old event sits in the batch.
        q.push(7.0, EventType.JOB_END, payload=2, validity_token=1)
        assert q  # the new event is live
        assert len(q) == 1
        assert q.pop().time == 7.0
        assert not q

    def test_stale_from_birth_is_dropped(self):
        q = EventQueue()
        q.push(9.0, EventType.JOB_END, payload=1, validity_token=3)
        q.push(4.0, EventType.JOB_END, payload=1, validity_token=1)
        assert len(q) == 1
        assert q.pop().validity_token == 3
        assert not q

    def test_distinct_payloads_do_not_interfere(self):
        q = EventQueue()
        q.push(1.0, EventType.JOB_END, payload=1, validity_token=0)
        q.push(2.0, EventType.JOB_END, payload=2, validity_token=5)
        assert len(q) == 2
        assert [e.payload for e in q.drain()] == [1, 2]


class TestRetire:
    def test_retired_payload_without_queued_events_is_forgotten(self):
        q = EventQueue()
        q.push(1.0, EventType.JOB_END, payload=1, validity_token=2)
        q.pop()
        q.retire(1)
        assert q._end_tokens == {}

    def test_superseded_event_stays_stale_until_it_leaves(self):
        q = EventQueue()
        q.push(9.0, EventType.JOB_END, payload=1, validity_token=0)
        q.push(4.0, EventType.JOB_END, payload=1, validity_token=1)  # supersedes
        assert q.pop().validity_token == 1
        q.retire(1)
        # The queued token-0 event must still read as stale.
        assert not q and len(q) == 0
        assert q.pop_batch() == []
        assert q._end_tokens == {} and q._end_queued == {} and q._retired == set()


class TestPopBatch:
    def test_empty_queue_returns_empty_batch(self):
        assert EventQueue().pop_batch() == []

    def test_collects_one_instant_only(self):
        q = EventQueue()
        q.push(1.0, EventType.JOB_SUBMIT, payload="a")
        q.push(1.0, EventType.JOB_SUBMIT, payload="b")
        q.push(2.0, EventType.JOB_SUBMIT, payload="c")
        batch = q.pop_batch()
        assert [e.payload for e in batch] == ["a", "b"]
        assert len(q) == 1

    def test_batch_arrives_in_priority_then_fifo_order(self):
        q = EventQueue()
        q.push(5.0, EventType.SCHEDULE, payload="sched")
        q.push(5.0, EventType.JOB_SUBMIT, payload="s1")
        q.push(5.0, EventType.JOB_END, payload=1)
        q.push(5.0, EventType.JOB_SUBMIT, payload="s2")
        batch = q.pop_batch()
        assert [e.payload for e in batch] == [1, "s1", "s2", "sched"]
        keys = [(e.time, e.type_priority, e.serial) for e in batch]
        assert keys == sorted(keys)

    def test_superseded_end_excluded_from_batch(self):
        q = EventQueue()
        q.push(3.0, EventType.JOB_END, payload=1, validity_token=0)
        q.push(3.0, EventType.JOB_SUBMIT, payload="s")
        q.push(3.0, EventType.JOB_END, payload=1, validity_token=1)  # supersedes
        batch = q.pop_batch()
        assert [(e.payload, getattr(e, "validity_token", None)) for e in batch] == [
            (1, 1),
            ("s", 0),
        ]
        assert not q

    def test_stale_front_does_not_define_batch_time(self):
        q = EventQueue()
        q.push(1.0, EventType.JOB_END, payload=1, validity_token=0)
        q.push(9.0, EventType.JOB_END, payload=1, validity_token=2)  # stale at 1.0
        batch = q.pop_batch()
        assert [e.time for e in batch] == [9.0]


# ---------------------------------------------------------------------- #
# Property tests: stale accounting under reconfiguration storms
# ---------------------------------------------------------------------- #
_ops = st.lists(
    st.tuples(
        st.sampled_from(["end", "submit", "pop"]),
        st.integers(1, 3),                             # payload (job id)
        st.integers(0, 4),                             # validity token
        st.floats(0.0, 100.0, allow_nan=False),        # time
    ),
    max_size=60,
)


def _heap_end_counts(q: EventQueue) -> dict:
    counts: dict = {}
    for event in q._heap:
        if event.event_type is EventType.JOB_END:
            key = (event.payload, event.validity_token)
            counts[key] = counts.get(key, 0) + 1
    return counts


class TestStaleAccountingProperties:
    @given(ops=_ops)
    @settings(max_examples=120, suppress_health_check=[HealthCheck.filter_too_much])
    def test_supersede_storms_never_desync_accounting(self, ops):
        """Arbitrary supersede/re-push/pop interleavings keep ``len`` equal to
        the live event count, ``_stale`` non-negative and exact, and
        ``_end_counts`` in sync with the heap contents."""
        q = EventQueue()
        for op, payload, token, time in ops:
            if op == "end":
                q.push(time, EventType.JOB_END, payload=payload, validity_token=token)
            elif op == "submit":
                q.push(time, EventType.JOB_SUBMIT, payload=payload)
            elif q:
                q.pop()
            live = sum(1 for e in q._heap if not q._is_stale(e))
            assert len(q) == live
            assert q._stale == len(q._heap) - live
            assert q._stale >= 0
            assert _heap_end_counts(q) == q._end_counts
            queued: dict = {}
            for (payload, _), count in q._end_counts.items():
                queued[payload] = queued.get(payload, 0) + count
            assert queued == q._end_queued

    @given(ops=_ops)
    @settings(max_examples=120, suppress_health_check=[HealthCheck.filter_too_much])
    def test_drain_yields_strictly_increasing_keys(self, ops):
        q = EventQueue()
        newest: dict = {}
        for op, payload, token, time in ops:
            if op == "end":
                q.push(time, EventType.JOB_END, payload=payload, validity_token=token)
                newest[payload] = max(newest.get(payload, token), token)
            elif op == "submit":
                q.push(time, EventType.JOB_SUBMIT, payload=payload)
            elif q:
                q.pop()
        drained = list(q.drain())
        keys = [(e.time, e.type_priority, e.serial) for e in drained]
        assert keys == sorted(keys)
        for a, b in zip(keys, keys[1:]):
            assert a < b  # serial is unique, so strictly increasing
        # Only live (newest-token) end events surface.
        for event in drained:
            if event.event_type is EventType.JOB_END:
                assert event.validity_token == newest[event.payload]
        assert not q and len(q) == 0

    @given(
        times=st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=1, max_size=30),
        storm=st.integers(1, 8),
    )
    @settings(max_examples=60)
    def test_pop_batch_equals_sorted_pops(self, times, storm):
        """pop_batch returns exactly what repeated pop() at the same instant
        would, already in order — the re-sort the driver used to do."""

        def build() -> EventQueue:
            q = EventQueue()
            for i, t in enumerate(times):
                q.push(t, EventType.JOB_SUBMIT, payload=("s", i))
            for token in range(storm):
                q.push(times[0], EventType.JOB_END, payload=99, validity_token=token)
            return q

        q1, q2 = build(), build()
        batch = q1.pop_batch()
        expected = []
        first = q2.pop()
        expected.append(first)
        while q2 and q2.peek().time == first.time:
            expected.append(q2.pop())
        expected.sort(key=lambda e: (e.type_priority, e.serial))
        assert [(e.time, e.type_priority, e.serial, e.payload) for e in batch] == [
            (e.time, e.type_priority, e.serial, e.payload) for e in expected
        ]
        assert len(q1) == len(q2)
