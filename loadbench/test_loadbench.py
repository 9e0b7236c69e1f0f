"""Tests of the loaded-workload benchmark itself (tiny inputs only)."""

from __future__ import annotations

import json
from array import array
from pathlib import Path

import numpy as np
import pytest

from loadbench import run
from loadbench.cases import SWFReplayCase, jittered, load_pins, w3_case, w4_case
from repro.simulator.pending_queue import PendingQueue
from loadbench.spans import SpanRecorder, self_times

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8")
)


def _run(capsys, *args):
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


#: Tiny stand-ins for every workload's cases (their seed-0 outputs are pinned too).
TINY = {
    "w4_sd": [w4_case("x0.0005", 0.0005), w4_case("x0.001", 0.001)],
    "w3_ub": [w3_case("x0.01", 0.01), w3_case("x0.02", 0.02)],
    "swf_replay": [SWFReplayCase("tiles2", 2)],
}


@pytest.fixture(autouse=True)
def _tiny_cases_spans_to_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_untraced(capsys, workload):
    result = _run(capsys, "--workload", workload, "--seconds", "0.2")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_traced_counts_repeat(capsys, workload):
    args = ("--workload", workload, "--seconds", "0.2", "--trace", "1")
    first, second = _run(capsys, *args), _run(capsys, *args)
    assert first["correct"] is True and first["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    for name, metric in first["metrics"].items():
        if metric["unit"] == "count":
            assert second["metrics"][name]["value"] == metric["value"], name
    assert first["metrics"]["backfill.passes"]["value"] > 0
    # Every simulation of the run folds each of its jobs exactly once.
    assert first["attempted"] % first["metrics"]["sinks.folds"]["value"] == 0


def test_held_out_seed_passes_output_check(capsys):
    result = _run(capsys, "--workload", "w3_ub", "--seconds", "0.2",
                  "--seed", "7")
    assert result["correct"] is True and result["failed"] == 0


def test_pin_mismatch_fails_every_operation(capsys, monkeypatch):
    pins = load_pins()
    pins["w4_sd"]["x0.001"]["avg_slowdown"] += 1e-9
    monkeypatch.setattr(run, "load_pins", lambda: pins)
    result = _run(capsys, "--workload", "w4_sd", "--seconds", "0.2")
    assert result["correct"] is False
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]


def test_self_times_on_hand_built_tree():
    # root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7]; d [12, 13] is a second root.
    starts = [0.0, 1.0, 5.0, 6.0, 12.0]
    ends = [10.0, 4.0, 9.0, 7.0, 13.0]
    parents = [-1, 0, 0, 2, -1]
    assert self_times(starts, ends, parents).tolist() == [3.0, 3.0, 3.0, 1.0, 1.0]


def test_summary_groups_self_time_by_name():
    recorder = SpanRecorder()
    names = ["outer", "inner", "inner", "outer"]
    for name in names:
        recorder.name_id(name)
    recorder.kind = array("i", [recorder.name_id(n) for n in names])
    recorder.start = array("d", [0.0, 1.0, 3.0, 10.0])
    recorder.end = array("d", [5.0, 2.0, 4.5, 11.0])
    recorder.parent = array("q", [-1, 0, 0, -1])
    summary = recorder.summary()
    assert summary["outer"] == {"count": 2, "total_s": 6.0, "self_s": 3.5}
    assert summary["inner"] == {"count": 2, "total_s": 2.5, "self_s": 2.5}
    assert recorder.children_of("outer", "inner") == 2


def test_wrapped_calls_nest():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert recorder.children_of("outer", "inner") == 2
    summary = recorder.summary()
    assert summary["outer"]["count"] == 1 and summary["inner"]["count"] == 2
    assert summary["outer"]["self_s"] <= summary["outer"]["total_s"]


def test_jittered_swf_stream_keeps_fifo_fast_path():
    case = SWFReplayCase("tiles2", 2)
    queue, moved = PendingQueue(), 0
    for original, job in zip(case.generate(seed=0)[1], case.generate(seed=5)[1]):
        queue.add(job)
        moved += job.submit_time != original.submit_time
        assert job.last_progress_update == job.submit_time
    assert moved > 0 and queue._fifo_only


class _Item:
    def __init__(self, t):
        self.submit_time = t


def test_jitter_keeps_order_and_seed_zero_is_identity():
    times = [0.0, 0.0, 0.05, 3.0, 3.0, 10.0]
    assert [i.submit_time for i in jittered([_Item(t) for t in times], 0)] == times
    moved = [i.submit_time for i in jittered([_Item(t) for t in times], 3)]
    assert moved == sorted(moved) and moved != times
    assert np.all(np.array(moved) - np.array(times) >= 0)
    assert np.all(np.array(moved) - np.array(times) <= 0.1)
