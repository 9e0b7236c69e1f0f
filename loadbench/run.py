#!/usr/bin/env python3
"""Loaded-workload benchmark of the SD-Policy simulator.

Usage::

    python3 loadbench/run.py --workload w4_sd --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the workload's cases are simulated over and over for
``--seconds`` (after a throwaway warm-up simulation) with one wall-clock
timer around each scheduling pass, and the end-to-end metrics are printed.
With ``--trace 1`` one untraced simulation of the largest case is followed by
traced ones, each layer's public functions wrapped in spans from outside
(``layers.py``), and the per-layer metrics are printed; the spans of the
last traced simulation are written to ``.bench_out/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  One operation is
one submitted job: a job that never completes failed, and when the output
check fails every job of the run counts as failed.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Dict, List  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[1]
if not (REPO_ROOT / "src" / "repro").is_dir():
    print(f"loadbench: no simulator sources under {REPO_ROOT / 'src'}", file=sys.stderr)
    raise SystemExit(2)
sys.path[:0] = [str(REPO_ROOT), str(REPO_ROOT / "src")]

import numpy as np  # noqa: E402

from loadbench.cases import WARMUP, WORKLOADS, Outcome, check_outcomes, load_pins  # noqa: E402
from loadbench.layers import (  # noqa: E402
    GEN_SPAN,
    TABLE_ONLY,
    Counters,
    instrument,
    layer_metrics,
)
from loadbench.spans import SpanRecorder  # noqa: E402

IMPORT_S = time.perf_counter() - _PROCESS_STARTED
SPANS_DIR = REPO_ROOT / ".bench_out"

_BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Every metric's unit: the benchmark's declared metrics plus the table-only ones.
UNITS = {m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"] + _BENCHMARK["per_layer"]}
UNITS.update(TABLE_ONLY)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _warm_up(workload: str) -> float:
    """Simulate a tiny instance once so first-call costs are paid untimed.

    Returns the warm-up's set-up time (its simulation loop is not counted).
    """
    return WARMUP[workload].simulate(0, time_passes=True).setup_s


def _repeat_for(seconds: float, step: Callable[[], None]) -> None:
    """Call ``step`` repeatedly for about ``seconds``, at least once.

    Another call starts only if it is expected to end within the budget
    (a call is assumed to last as long as the previous one).
    """
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - started + (now - began) > seconds:
            return


def measure(cases, seed: int, seconds: float) -> Dict[str, List[Outcome]]:
    """Simulate every case in turn, round after round, for about ``seconds``."""
    outcomes: Dict[str, List[Outcome]] = {case.label: [] for case in cases}

    def one_round() -> None:
        for case in cases:
            outcomes[case.label].append(case.simulate(seed, time_passes=True))

    _repeat_for(seconds, one_round)
    return outcomes


def end_to_end(cases, outcomes: Dict[str, List[Outcome]], warmup_s: float) -> Dict[str, float]:
    """End-to-end metrics from the timed rounds (medians over rounds)."""
    small, large = outcomes[cases[0].label], outcomes[cases[-1].label]
    wall_large = statistics.median(o.sim_s for o in large)
    if len(cases) > 1:
        wall_small = statistics.median(o.sim_s for o in small)
        jobs_ratio = large[0].submitted / small[0].submitted
    else:
        wall_small = statistics.median(o.half_s for o in large)
        jobs_ratio = large[0].submitted / (large[0].submitted // 2)
    passes = np.array([s for o in large for s in o.pass_s]) * 1e3
    rounds = zip(*(outcomes[case.label] for case in cases))
    setup = statistics.median(sum(o.setup_s for o in per_round) for per_round in rounds)
    return {
        "jobs_per_s": large[0].completed / wall_large,
        "pass_ms_p50": float(np.percentile(passes, 50)),
        "pass_ms_p99": float(np.percentile(passes, 99)),
        "scaling_exponent": math.log(wall_large / wall_small) / math.log(jobs_ratio),
        "setup_s": IMPORT_S + warmup_s + setup,
        "peak_rss_mib": _peak_rss_mib(),
    }


def traced(case, seed: int, seconds: float, spans_path: Path):
    """One untraced then traced simulations of ``case`` for about ``seconds``.

    Returns the outcomes (untraced first), the per-layer metrics (medians of
    the traced simulations' times, counts of the first) and a list of
    per-layer counts that differed between traced simulations.
    """
    baseline = case.simulate(seed, time_passes=False)
    outcomes = [baseline]
    per_rep: List[Dict[str, float]] = []
    last_recorder = None

    def one_traced() -> None:
        nonlocal last_recorder
        recorder, counters = SpanRecorder(), Counters()
        with instrument(recorder, counters):
            outcome = case.simulate(
                seed, time_passes=False, generate=recorder.wrap(GEN_SPAN, case.generate)
            )
        outcomes.append(outcome)
        metrics = layer_metrics(recorder, counters, outcome.stats)
        metrics["tracing.overhead_ratio"] = outcome.sim_s / baseline.sim_s
        per_rep.append(metrics)
        last_recorder = recorder

    _repeat_for(seconds, one_traced)
    last_recorder.save(spans_path)
    counts = [name for name in per_rep[0] if UNITS[name] == "count"]
    unsteady = [n for n in counts if any(rep[n] != per_rep[0][n] for rep in per_rep[1:])]
    merged = {
        name: per_rep[0][name]
        if UNITS[name] == "count"
        else statistics.median(rep[name] for rep in per_rep)
        for name in per_rep[0]
    }
    return outcomes, merged, unsteady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="0 replays the preset traces exactly (pinned outputs)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    cases = WORKLOADS[args.workload]
    warmup_s = _warm_up(args.workload)
    problems: List[str] = []
    if args.trace:
        spans_path = SPANS_DIR / f"spans-{args.workload}.npz"
        runs, values, unsteady = traced(cases[-1], args.seed, args.seconds, spans_path)
        outcomes = {cases[-1].label: runs}
        problems += [f"per-layer count {name} differs between traced runs" for name in unsteady]
    else:
        outcomes = measure(cases, args.seed, args.seconds)
        values = end_to_end(cases, outcomes, warmup_s)
    metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    problems += check_outcomes(args.workload, args.seed, outcomes, load_pins())

    attempted = sum(o.submitted for runs in outcomes.values() for o in runs)
    failed = attempted if problems else sum(
        o.submitted - o.completed for runs in outcomes.values() for o in runs
    )
    for problem in problems:
        print(f"loadbench: output check failed: {problem}", file=sys.stderr)
    for label, runs in outcomes.items():
        print(f"# {label}: {len(runs)} simulations, {runs[0].submitted} jobs, "
              f"{sum(len(o.pass_s) for o in runs)} timed passes, "
              f"median {statistics.median(o.sim_s for o in runs):.3f} s")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: v for k, v in metrics.items() if k not in TABLE_ONLY},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
