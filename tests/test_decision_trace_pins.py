"""Decision-trace pins: the scheduler's every decision, byte for byte.

Golden metric pins say *what* a run produced; these pin *how*: the sha256
of the canonical JSONL decision trace (every submit, start, end, backfill
hole, weighed mate candidate, rejection, selection and reconfiguration) of
two loaded runs.  Any optimisation of the scheduling pass — the reservation
map, the mate pool, the combination search — must leave both unchanged.

* workload 4 at scale 0.005 under SD-Policy (worst-case model, MAXSD 10):
  the congested path where nearly every malleable trial fails;
* workload 3 at scale 0.02 with the Table 2 application mix under
  UB-Policy (application-aware model, MAXSD 10): bandwidth-ordered mates
  and bandwidth refusals.

The schedulers are passed as objects, as the loaded-workload benchmark
does, so the trace header names the scheduler instance rather than the
policy string.
"""

from __future__ import annotations

import hashlib

from repro.experiments.runner import make_scheduler, run_workload
from repro.workloads.applications import assign_applications
from repro.workloads.presets import build_workload


def _trace_digest(run) -> str:
    return hashlib.sha256(run.trace.to_bytes()).hexdigest()


def test_workload4_sd_policy_trace_pinned():
    run = run_workload(
        build_workload(4, scale=0.005),
        policy=make_scheduler("sd_policy", max_slowdown=10.0),
        runtime_model="worst_case",
        retain_jobs=False,
        trace=True,
    )
    assert len(run.trace) == 21810
    assert _trace_digest(run) == (
        "727c28bf42f8c235eb8d7451aa67d94c5e52ca74650d510365ae02e215d919ad"
    )


def test_workload3_ub_policy_trace_pinned():
    run = run_workload(
        assign_applications(build_workload(3, scale=0.02)),
        policy=make_scheduler("ub_policy", max_slowdown=10.0, profiles="table2"),
        runtime_model="application_aware",
        profiles="table2",
        retain_jobs=False,
        trace=True,
    )
    assert len(run.trace) == 2428
    assert _trace_digest(run) == (
        "8049b2620fc0ac643aeb9b1ce4b565455922bce661dc8854bbf8e133e3d854fe"
    )
