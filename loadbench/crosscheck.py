#!/usr/bin/env python3
"""Compare the traced layer split with cProfile's on one simulation.

Usage::

    python3 loadbench/crosscheck.py [--workload w4_sd] [--case 0] [--seed 0]

Simulates one case twice, once under :mod:`cProfile` and once with the
benchmark's spans, and prints the share of the simulation loop spent in mate
selection (``MateSelector.select``), in the reservation map
(``from_running_jobs``, ``earliest_start``, ``add_reservation``) and in the
rest, inclusive of callees in both cases.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO_ROOT), str(REPO_ROOT / "src")]

from loadbench.cases import WORKLOADS  # noqa: E402
from loadbench.layers import Counters, instrument, layer_metrics  # noqa: E402
from loadbench.spans import SpanRecorder  # noqa: E402

RESERVATION = ("from_running_jobs", "earliest_start", "add_reservation")


def profiled_split(case, seed: int):
    profiler = cProfile.Profile()
    profiler.enable()
    case.simulate(seed, time_passes=False)
    profiler.disable()
    cumulative = {}
    for (path, _, func), (_, _, _, cum, _) in pstats.Stats(profiler).stats.items():
        cumulative[(Path(path).name, func)] = cumulative.get((Path(path).name, func), 0.0) + cum
    simulate = cumulative[("simulation.py", "run")]
    mate = cumulative[("mate_selection.py", "select")]
    reservation = sum(cumulative.get(("reservation.py", f), 0.0) for f in RESERVATION)
    return simulate, mate / simulate, reservation / simulate


def traced_split(case, seed: int):
    recorder, counters = SpanRecorder(), Counters()
    with instrument(recorder, counters):
        outcome = case.simulate(seed, time_passes=False)
    metrics = layer_metrics(recorder, counters, outcome.stats)
    return (
        metrics["split.simulate_s"],
        metrics["split.mate_selection_share"],
        metrics["split.reservation_share"],
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="w4_sd", choices=sorted(WORKLOADS))
    parser.add_argument("--case", type=int, default=0, help="index into the workload's cases")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    case = WORKLOADS[args.workload][args.case]
    case.simulate(args.seed, time_passes=False)  # warm-up
    print(f"{args.workload} {case.label} seed {args.seed}")
    print(f"{'method':10s} {'simulate_s':>10s} {'mate_sel':>9s} {'reserv':>9s} {'rest':>9s}")
    for method, split in (("cProfile", profiled_split), ("spans", traced_split)):
        simulate, mate, reservation = split(case, args.seed)
        rest = 1.0 - mate - reservation
        print(f"{method:10s} {simulate:10.3f} {mate:9.1%} {reservation:9.1%} {rest:9.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
