"""Unit tests for the future-availability profile (ReservationMap)."""

from __future__ import annotations

import math

import pytest

from repro.simulator.reservation import ReservationMap
from tests.conftest import make_job


class TestBasics:
    def test_free_now(self):
        profile = ReservationMap(total_nodes=10, now=0.0, free_now=4)
        assert profile.free_nodes_at(0.0) == 4
        assert profile.earliest_start(4) == 0.0
        assert profile.earliest_start(5) == math.inf

    def test_invalid_free_now(self):
        with pytest.raises(ValueError):
            ReservationMap(total_nodes=4, now=0.0, free_now=5)

    def test_release_increases_future_availability(self):
        profile = ReservationMap(total_nodes=10, now=0.0, free_now=2, releases=[(100.0, 4)])
        assert profile.free_nodes_at(50.0) == 2
        assert profile.free_nodes_at(100.0) == 6
        assert profile.earliest_start(5) == 100.0

    def test_zero_nodes_needed_starts_now(self):
        profile = ReservationMap(total_nodes=10, now=5.0, free_now=0)
        assert profile.earliest_start(0) == 5.0

    def test_request_larger_than_cluster_never_starts(self):
        profile = ReservationMap(total_nodes=4, now=0.0, free_now=4)
        assert profile.earliest_start(5) == math.inf

    def test_availability_clamped_to_total(self):
        profile = ReservationMap(
            total_nodes=4, now=0.0, free_now=4, releases=[(10.0, 100)]
        )
        assert profile.free_nodes_at(20.0) == 4


class TestReservations:
    def test_reservation_blocks_interval(self):
        profile = ReservationMap(total_nodes=10, now=0.0, free_now=10)
        profile.add_reservation(start=100.0, duration=50.0, nodes=8)
        # A short 4-node job fits entirely before the reservation.
        assert profile.earliest_start(4, duration=60.0) == 0.0
        # A 4-node 200s job would overlap the reservation window (where only
        # 2 nodes remain free), so it must start after the reservation ends.
        assert profile.earliest_start(4, duration=200.0) == 150.0
        # Same for an 8-node 200s job.
        assert profile.earliest_start(8, duration=200.0) == 150.0

    def test_duration_window_honoured(self):
        profile = ReservationMap(total_nodes=4, now=0.0, free_now=4)
        profile.add_reservation(start=50.0, duration=10.0, nodes=4)
        # Short job fits before the reservation.
        assert profile.earliest_start(4, duration=50.0) == 0.0
        # Longer job would collide, so it starts after the reservation.
        assert profile.earliest_start(4, duration=51.0) == 60.0

    def test_infinite_duration_ignores_window(self):
        profile = ReservationMap(total_nodes=4, now=0.0, free_now=2, releases=[(30.0, 2)])
        assert profile.earliest_start(3, duration=None) == 30.0
        assert profile.earliest_start(3, duration=math.inf) == 30.0

    def test_reservation_with_zero_nodes_is_noop(self):
        profile = ReservationMap(total_nodes=4, now=0.0, free_now=4)
        profile.add_reservation(10.0, 10.0, 0)
        assert profile.earliest_start(4) == 0.0

    def test_negative_duration_rejected(self):
        profile = ReservationMap(total_nodes=4, now=0.0, free_now=4)
        with pytest.raises(ValueError, match="negative"):
            profile.add_reservation(10.0, -1.0, 2)

    def test_profile_points_sorted(self):
        profile = ReservationMap(total_nodes=8, now=0.0, free_now=3,
                                 releases=[(50.0, 2), (20.0, 3)])
        points = profile.profile()
        times = [t for t, _ in points]
        assert times == sorted(times)
        assert points[0] == (0.0, 3)


class TestFromRunningJobs:
    def _running_job(self, job_id, start, req_time, nodes):
        job = make_job(job_id=job_id, submit=0.0, nodes=nodes, req_time=req_time,
                       runtime=req_time / 2)
        job.mark_started(start, list(range(nodes)))
        job.reconfigure(start, {n: 8 for n in range(nodes)}, speed=1.0)
        return job

    def test_uses_requested_time_by_default(self):
        job = self._running_job(1, start=0.0, req_time=100.0, nodes=2)
        profile = ReservationMap.from_running_jobs(
            total_nodes=4, now=10.0, free_now=2, running_jobs=[job]
        )
        assert profile.earliest_start(4) == 100.0

    def test_pending_job_ignored(self):
        pending = make_job(job_id=3, nodes=2)
        profile = ReservationMap.from_running_jobs(
            total_nodes=4, now=0.0, free_now=4, running_jobs=[pending]
        )
        assert profile.earliest_start(4) == 0.0
