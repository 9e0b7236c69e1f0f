"""The simulation's running-set index against per-job rescans.

The driver keeps each running job's requested end, node count and CPUs, and
the cluster keeps each job's shared-node count, both updated where an
allocation changes.  After every step of a random sequence of static starts,
shared starts, reconfigurations (some after a wall-limit extension), ends
and clock advances, the index must answer exactly what a rescan of the
running jobs answers:

* the availability profile equals :meth:`ReservationMap.from_running_jobs`;
* the running jobs' requested work equals the per-job loop bit for bit;
* :meth:`Cluster.shares_node` equals a scan of the job's nodes;
* once every job has ended, nothing is left in either index.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedulers.fcfs import FCFSScheduler
from repro.simulator.cluster import Cluster
from repro.simulator.reservation import ReservationMap
from repro.simulator.simulation import Simulation
from tests.conftest import make_job

NODES = 6
CPUS = 8
# Few distinct values, so requested ends often coincide and fall due.
REQUESTS = [10.0, 25.0, 40.0, 0.1 + 0.2, 100.0]
ADVANCES = [0.0, 5.0, 10.0, 15.0, 0.7]

ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("static"), st.integers(1, NODES), st.sampled_from(REQUESTS)),
        st.tuples(st.just("shared"), st.integers(0, 50), st.sampled_from(REQUESTS)),
        st.tuples(
            st.just("reconfigure"),
            st.integers(0, 50),
            st.sampled_from(["same", "shrink", "expand", "drop"]),
            st.sampled_from([0.0, 0.0, 7.5, 0.1]),
        ),
        st.tuples(st.just("end"), st.integers(0, 50)),
        st.tuples(st.just("advance"), st.sampled_from(ADVANCES)),
    ),
    max_size=40,
)


def rescanned_work(sim: Simulation) -> float:
    """The per-job loop the index replaces."""
    total = 0.0
    for job in sim.running.values():
        remaining = max(0.0, job.start_time + job.requested_time - sim.now)
        total += remaining * job.requested_cpus
    return total


def assert_index_matches_rescan(sim: Simulation) -> None:
    cluster = sim.cluster
    fast = sim.availability_profile()
    slow = ReservationMap.from_running_jobs(
        cluster.num_nodes, sim.now, cluster.num_free_nodes, sim.running.values()
    )
    assert fast.profile() == slow.profile()
    for needed in range(1, NODES + 1):
        for duration in (None, 5.0, 30.0):
            assert fast.earliest_start(needed, duration) == slow.earliest_start(
                needed, duration
            )
    assert sim.running_requested_work().hex() == rescanned_work(sim).hex()
    for job in sim.running.values():
        assert cluster.shares_node(job.job_id) == any(
            cluster.node(nid).is_shared for nid in job.allocated_nodes
        )
    cluster.validate()


def pick(sim: Simulation, index: int):
    jobs = list(sim.running.values())
    return jobs[index % len(jobs)] if jobs else None


@given(ops=ops_st)
@settings(max_examples=300, deadline=None)
def test_running_index_matches_rescans(ops):
    sim = Simulation(Cluster(NODES, sockets=2, cores_per_socket=CPUS // 2), FCFSScheduler())
    cluster = sim.cluster
    next_id = 1

    def new_job(nodes, req_time):
        nonlocal next_id
        job = make_job(job_id=next_id, submit=sim.now, nodes=nodes, req_time=req_time,
                       runtime=req_time, cpus_per_node=CPUS)
        next_id += 1
        sim.jobs[job.job_id] = job
        sim.pending.add(job)
        return job

    for op in ops:
        kind = op[0]
        if kind == "static" and op[1] <= cluster.num_free_nodes:
            sim.start_job_static(new_job(op[1], op[2]))
        elif kind == "shared":
            mate = pick(sim, op[1])
            if mate is not None and all(c > 1 for c in mate.assigned_cpus.values()):
                sim.reconfigure_job(mate, {n: c // 2 for n, c in mate.assigned_cpus.items()})
                guest_cpus = {n: cluster.node(n).free_cpus for n in mate.allocated_nodes}
                guest = new_job(len(guest_cpus), op[2])
                sim.start_job_shared(guest, guest_cpus, [mate])
        elif kind == "reconfigure":
            job = pick(sim, op[1])
            if job is None:
                continue
            new_map = dict(job.assigned_cpus)
            if op[2] == "shrink":
                new_map = {n: max(1, c // 2) for n, c in new_map.items()}
            elif op[2] == "expand":
                new_map = {n: c + cluster.node(n).free_cpus for n, c in new_map.items()}
            elif op[2] == "drop" and len(new_map) > 1:
                del new_map[max(new_map)]
            job.requested_time += op[3]  # a wall-limit extension, or none
            sim.reconfigure_job(job, new_map)
        elif kind == "end":
            job = pick(sim, op[1])
            if job is not None:
                sim._handle_end(job.job_id)
        elif kind == "advance":
            sim.now += op[1]
        assert_index_matches_rescan(sim)

    for job_id in list(sim.running):
        sim._handle_end(job_id)
        assert_index_matches_rescan(sim)
    assert cluster._shared_nodes == {}
    assert sim._requested == {} and sim._ends == [] and sim._end_nodes == []
    assert cluster.num_free_nodes == NODES


def test_validate_catches_a_stale_shared_count():
    sim = Simulation(Cluster(2, sockets=2, cores_per_socket=4), FCFSScheduler())
    mate = make_job(job_id=1, nodes=1, cpus_per_node=8)
    guest = make_job(job_id=2, nodes=1, cpus_per_node=8)
    for job in (mate, guest):
        sim.jobs[job.job_id] = job
        sim.pending.add(job)
    sim.start_job_static(mate)
    sim.reconfigure_job(mate, {0: 4})
    sim.start_job_shared(guest, {0: 4}, [mate])
    assert sim.cluster.shares_node(1) and sim.cluster.shares_node(2)
    sim.cluster._shared_nodes.pop(2)
    with pytest.raises(AssertionError, match="shared-node counts"):
        sim.cluster.validate()
