"""Static backfill baseline (SLURM ``sched/backfill`` style).

This is the paper's comparison point ("static backfill"): whole-node,
exclusive allocations, jobs examined in priority order, and *conservative*
backfill — every examined job that cannot start immediately gets a
reservation in the future-availability profile, and lower-priority jobs may
only start now if doing so does not push any of those reservations back.
This mirrors how the SLURM backfill plug-in builds its reservation map up to
``bf_max_job_test`` jobs deep.

The SD-Policy scheduler (:mod:`repro.core.sd_policy`) extends this class by
adding the malleable scheduling attempt right after the static trial of each
job fails, exactly as in Listing 1 of the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.schedulers.base import Scheduler
from repro.simulator.reservation import ReservationMap

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.job import Job
    from repro.simulator.simulation import Simulation


class BackfillScheduler(Scheduler):
    """Conservative backfill over exclusive whole-node allocations.

    Parameters
    ----------
    max_job_test:
        Maximum number of pending jobs examined per scheduling pass
        (SLURM's ``bf_max_job_test``).  Jobs beyond this depth simply wait
        for a later pass.
    """

    name = "static_backfill"

    #: Whether a scheduling pass is useful when the cluster has zero free
    #: nodes.  Static backfill cannot start anything in that state, so the
    #: pass is skipped (a large saving on saturated workloads); SD-Policy
    #: overrides this because malleable co-scheduling works precisely when
    #: no free nodes are left.
    schedule_when_saturated = False

    def __init__(self, max_job_test: int = 100) -> None:
        if max_job_test <= 0:
            raise ValueError("max_job_test must be positive")
        self.max_job_test = max_job_test

    # ------------------------------------------------------------------ #
    # Hooks for subclasses (SD-Policy overrides ``try_malleable_start``)
    # ------------------------------------------------------------------ #
    def try_malleable_start(
        self,
        sim: "Simulation",
        job: "Job",
        profile: ReservationMap,
        estimated_start: float,
        work_ahead_cpu_seconds: float = 0.0,
    ) -> bool:
        """Attempt a non-static start for a job whose static trial failed.

        The base (static) policy never does; SD-Policy overrides this with
        the slowdown-driven malleable co-scheduling attempt.  Must return
        True if the job was started.

        ``work_ahead_cpu_seconds`` is the total requested work (CPU·seconds)
        of the running jobs plus the higher-priority pending jobs — a cheap
        lower bound on how long this job must wait that stays meaningful
        even for queue positions beyond the reservation depth
        (``max_job_test``).
        """
        return False

    def on_pass_start(self, sim: "Simulation") -> None:
        """Hook called at the beginning of every scheduling pass."""

    # ------------------------------------------------------------------ #
    def schedule(self, sim: "Simulation") -> None:
        if sim.cluster.num_free_nodes == 0 and not self.schedule_when_saturated:
            return
        self.on_pass_start(sim)
        profile = sim.availability_profile()
        work_ahead = sim.running_requested_work()
        trace = sim.trace
        examined = 0
        blocked_ahead = 0  # higher-priority jobs that could not start this pass
        for job in sim.pending.ordered():
            if examined >= self.max_job_test:
                break
            examined += 1
            # Static trial: can the job start right now on free nodes without
            # delaying any reservation made earlier in this pass?
            est_start = profile.earliest_start(job.requested_nodes, job.requested_time)
            if est_start <= sim.now and sim.cluster.can_allocate(job):
                sim.start_job_static(job)
                profile.add_reservation(sim.now, job.requested_time, job.requested_nodes)
                work_ahead += job.requested_cpus * job.requested_time
                if trace is not None and blocked_ahead:
                    # Started out of priority order: the job slipped into a
                    # hole ahead of blocked higher-priority jobs — backfill.
                    trace.emit(
                        "backfill_hole",
                        sim.now,
                        job=job.job_id,
                        nodes=job.requested_nodes,
                        ahead=blocked_ahead,
                        est_start=est_start,
                    )
                continue
            # Static start not possible now: give the subclass a chance to
            # start the job through malleability.
            if self.try_malleable_start(sim, job, profile, est_start, work_ahead):
                work_ahead += job.requested_cpus * job.requested_time
                continue
            # Conservative reservation so later jobs cannot delay this one.
            if est_start != float("inf"):
                profile.add_reservation(est_start, job.requested_time, job.requested_nodes)
            work_ahead += job.requested_cpus * job.requested_time
            blocked_ahead += 1
