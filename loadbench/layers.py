"""Per-layer accounting: wrap each layer's public functions in spans.

:func:`instrument` patches the simulator's classes from outside for the
length of a ``with`` block, so every call into a layer records a span in a
:class:`~loadbench.spans.SpanRecorder`; :func:`layer_metrics` turns the
recorded spans into the per-layer metrics of ``BENCHMARK.json``.  Metric
names are ``<layer>.<metric>``; ``_s`` metrics are self seconds (a span's
time minus the time of the wrapped calls it made), ``_share`` metrics are
inclusive time over the whole simulation loop, all others are exact counts.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Tuple

from loadbench.spans import SpanRecorder
from repro.core.contention import ApplicationAwareRuntimeModel, ContentionModel
from repro.core.mate_selection import MateSelector
from repro.core.runtime_model import IdealRuntimeModel, WorstCaseRuntimeModel
from repro.core.sd_policy import SDPolicyScheduler
from repro.metrics.streaming import StreamingMetrics
from repro.schedulers.backfill import BackfillScheduler
from repro.simulator.cluster import Cluster
from repro.simulator.engine import EventQueue
from repro.simulator.pending_queue import PendingQueue
from repro.simulator.reservation import ReservationMap
from repro.simulator.simulation import Simulation

#: (owner class, attribute, span name) of every wrapped public call.
WRAPPED: Tuple[Tuple[type, str, str], ...] = (
    (EventQueue, "push", "engine.push"),
    (EventQueue, "pop_batch", "engine.pop_batch"),
    (Simulation, "run", "simulation.run"),
    (Simulation, "step", "simulation.step"),
    (Simulation, "availability_profile", "simulation.availability_profile"),
    (Simulation, "start_job_static", "simulation.start_job_static"),
    (Simulation, "reconfigure_job", "simulation.reconfigure_job"),
    (BackfillScheduler, "schedule", "backfill.schedule"),
    (ReservationMap, "from_running_jobs", "reservation.from_running_jobs"),
    (ReservationMap, "earliest_start", "reservation.earliest_start"),
    (ReservationMap, "add_reservation", "reservation.add_reservation"),
    (SDPolicyScheduler, "try_malleable_start", "sd_policy.try_malleable_start"),
    (SDPolicyScheduler, "on_job_submit", "sd_policy.on_job_submit"),
    (SDPolicyScheduler, "on_job_end", "sd_policy.on_job_end"),
    (MateSelector, "select", "mate_selection.select"),
    (MateSelector, "candidate_mates", "mate_selection.candidate_mates"),
    (ContentionModel, "allows_pairing", "contention.allows_pairing"),
    (ContentionModel, "bandwidth_demand", "contention.bandwidth_demand"),
    (ContentionModel, "bandwidth_feasible", "contention.bandwidth_feasible"),
    (IdealRuntimeModel, "speed", "runtime_model.speed"),
    (WorstCaseRuntimeModel, "speed", "runtime_model.speed"),
    (ApplicationAwareRuntimeModel, "speed", "runtime_model.speed"),
    (Cluster, "can_allocate", "cluster.can_allocate"),
    (Cluster, "allocate_static", "cluster.allocate_static"),
    (Cluster, "allocate_shared", "cluster.allocate_shared"),
    (Cluster, "reconfigure_allocation", "cluster.reconfigure_allocation"),
    (Cluster, "release_job", "cluster.release_job"),
    (PendingQueue, "ordered", "pending_queue.ordered"),
    (StreamingMetrics, "fold", "sinks.fold"),
    (StreamingMetrics, "workload_metrics", "metrics.workload_metrics"),
)

#: Span name of the benchmark's own input generation (workload builders).
GEN_SPAN = "workloads.generate"

#: Metrics (name -> unit) printed in the run's table but not reported as
#: results: a per-layer time must be a measurement on every workload, and
#: without a contention model (w4_sd, swf_replay) this one is a constant 0.
TABLE_ONLY = {"contention.s": "s"}

_CLUSTER_SPANS = tuple(name for _, _, name in WRAPPED if name.startswith("cluster."))


class Counters:
    """Counts observed from call arguments and results while tracing."""

    def __init__(self) -> None:
        self.events = 0
        self.running_scanned = 0
        self.candidates_admitted = 0
        self.selections = 0

    def observer(self, span_name: str):
        if span_name == "engine.pop_batch":
            def observe(args, result):
                self.events += len(result)
        elif span_name == "mate_selection.candidate_mates":
            def observe(args, result):
                self.running_scanned += len(args[1].running)
                self.candidates_admitted += len(result)
        elif span_name == "mate_selection.select":
            def observe(args, result):
                if result is not None:
                    self.selections += 1
        else:
            return None
        return observe


@contextlib.contextmanager
def instrument(recorder: SpanRecorder, counters: Counters) -> Iterator[None]:
    """Wrap every function in :data:`WRAPPED` for the block's duration."""
    saved: List[Tuple[type, str, object]] = []
    try:
        for owner, attr, name in WRAPPED:
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            observe = counters.observer(name)
            if isinstance(raw, classmethod):
                patched = classmethod(recorder.wrap(name, raw.__func__, observe))
            else:
                patched = recorder.wrap(name, raw, observe)
            setattr(owner, attr, patched)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def layer_metrics(
    recorder: SpanRecorder, counters: Counters, stats: Dict[str, int]
) -> Dict[str, float]:
    """The per-layer metrics of one traced simulation (see NOTES.md)."""
    spans = recorder.summary()

    def count(name: str) -> int:
        return spans.get(name, {}).get("count", 0)

    def self_s(*names: str) -> float:
        return sum(spans.get(name, {}).get("self_s", 0.0) for name in names)

    def total_s(*names: str) -> float:
        return sum(spans.get(name, {}).get("total_s", 0.0) for name in names)

    simulate = total_s("simulation.run")
    selects = count("mate_selection.select")
    reservation = (
        "reservation.from_running_jobs",
        "reservation.earliest_start",
        "reservation.add_reservation",
    )
    return {
        "engine.events": counters.events,
        "engine.pushes": count("engine.push"),
        "engine.self_s": self_s("engine.push", "engine.pop_batch"),
        "simulation.step_self_s": self_s("simulation.step"),
        "simulation.profile_calls": count("simulation.availability_profile"),
        "simulation.profile_s": self_s("simulation.availability_profile"),
        "simulation.reconfigures": count("simulation.reconfigure_job"),
        "backfill.passes": count("backfill.schedule"),
        "backfill.pass_self_s": self_s("backfill.schedule"),
        "backfill.queue_examined": recorder.children_of(
            "backfill.schedule", "reservation.earliest_start"
        ),
        "backfill.static_starts": recorder.children_of(
            "backfill.schedule", "simulation.start_job_static"
        ),
        "reservation.builds": count("reservation.from_running_jobs"),
        "reservation.build_s": self_s("reservation.from_running_jobs"),
        "reservation.earliest_start_calls": count("reservation.earliest_start"),
        "reservation.earliest_start_s": self_s("reservation.earliest_start"),
        "reservation.adds": count("reservation.add_reservation"),
        "reservation.add_s": self_s("reservation.add_reservation"),
        "sd_policy.trials": count("sd_policy.try_malleable_start"),
        "sd_policy.trial_self_s": self_s("sd_policy.try_malleable_start"),
        "sd_policy.submit_hook_s": self_s("sd_policy.on_job_submit"),
        "sd_policy.end_hook_s": self_s("sd_policy.on_job_end"),
        "sd_policy.malleable_starts": stats.get("malleable_starts", 0),
        "sd_policy.rejected_by_estimate": stats.get("rejected_by_estimate", 0),
        "sd_policy.rejected_no_mates": stats.get("rejected_no_mates", 0),
        "sd_policy.rejected_bandwidth": stats.get("rejected_bandwidth", 0),
        "mate_selection.selects": selects,
        "mate_selection.candidates_s": self_s("mate_selection.candidate_mates"),
        "mate_selection.select_self_s": self_s("mate_selection.select"),
        "mate_selection.running_scanned": counters.running_scanned,
        "mate_selection.candidates_admitted": counters.candidates_admitted,
        "mate_selection.success_ratio": counters.selections / selects if selects else 0.0,
        "contention.pair_checks": count("contention.allows_pairing"),
        "contention.s": self_s(
            "contention.allows_pairing",
            "contention.bandwidth_demand",
            "contention.bandwidth_feasible",
        ),
        "runtime_model.speed_calls": count("runtime_model.speed"),
        "runtime_model.s": self_s("runtime_model.speed"),
        "cluster.calls": sum(count(name) for name in _CLUSTER_SPANS),
        "cluster.s": self_s(*_CLUSTER_SPANS),
        "pending_queue.calls": count("pending_queue.ordered"),
        "pending_queue.s": self_s("pending_queue.ordered"),
        "sinks.folds": count("sinks.fold"),
        "sinks.fold_s": self_s("sinks.fold"),
        "metrics.finalize_s": self_s("metrics.workload_metrics"),
        "workloads.gen_s": total_s(GEN_SPAN),
        "split.simulate_s": simulate,
        "split.mate_selection_share": total_s("mate_selection.select") / simulate,
        "split.reservation_share": total_s(*reservation) / simulate,
    }
