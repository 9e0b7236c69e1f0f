"""Application-aware energy accounting for the real-run emulation.

The plain simulator charges every assigned CPU at full dynamic power.  The
real-run applications differ: STREAM keeps cores stalled on memory (low
effective CPU utilisation), PILS saturates them, and so on.  Energy is
therefore recomputed from each job's resource history weighted by its
application's ``cpu_utilization``, on top of the idle power of the 49-node
system over the makespan — the same structure as the paper's "energy
reported by system software".
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.profiles import get_application
from repro.metrics.energy import LinearPowerModel, workload_energy
from repro.simulator.job import Job


def real_run_energy(
    jobs: Iterable[Job],
    num_nodes: int,
    cpus_per_node: int,
    power_model: Optional[LinearPowerModel] = None,
) -> float:
    """Energy (joules) of a real-run workload execution."""
    return workload_energy(
        jobs,
        num_nodes=num_nodes,
        cpus_per_node=cpus_per_node,
        power_model=power_model or LinearPowerModel(),
        utilization_of=lambda job: get_application(job.application).cpu_utilization,
    )
