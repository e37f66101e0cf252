"""Tests of the benchmark itself (not part of the repo's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.experiments import runner  # noqa: E402
from repro.traces import synthetic  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: A seed none of the tuning runs used.
HELD_OUT_SEED = 90210


# -- self time ------------------------------------------------------------


def test_self_time_of_nested_spans():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8].
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 8.0])
    parent = np.array([-1, 0, 0, 2])
    own = tracing.self_times(start, end, parent)
    assert own.tolist() == [3.0, 3.0, 2.0, 2.0]
    assert own.sum() == pytest.approx(10.0)
    assert tracing.root_ids(parent).tolist() == [0, 0, 0, 0]


def test_self_time_removes_wrapper_cost():
    start = np.array([0.0, 1.0, 5.0])
    end = np.array([10.0, 4.0, 9.0])
    parent = np.array([-1, 0, 0])
    own = tracing.self_times(start, end, parent, inner=0.1, outer=0.2)
    # Each span loses its inner cost; the root also loses the outer
    # cost of its two children.
    assert own.tolist() == pytest.approx([3.0 - 0.1 - 0.4, 2.9, 3.9])


def test_recorder_links_spans_and_roots():
    rec = tracing.SpanRecorder()
    calls = []

    def leaf():
        calls.append("leaf")

    inner_fn = rec.wrap(leaf, rec.register("leaf", "core"))

    def mid():
        inner_fn()
        inner_fn()

    outer_fn = rec.wrap(mid, rec.register("mid", "sim"))
    outer_fn()
    outer_fn()
    cols = rec.columns()
    assert cols["parent"].tolist() == [-1, 0, 0, -1, 3, 3]
    assert cols["root"].tolist() == [0, 0, 0, 3, 3, 3]
    assert calls == ["leaf"] * 4
    own = tracing.self_times(cols["start"], cols["end"], cols["parent"])
    assert (own >= 0).all()
    dur = cols["end"] - cols["start"]
    assert own.sum() == pytest.approx(dur[0] + dur[3])


def test_patching_covers_imports_by_name_and_is_undone():
    original = synthetic.generate_trace
    rec = tracing.SpanRecorder()
    with tracing.traced(rec):
        assert runner.generate_trace is synthetic.generate_trace
        assert synthetic.generate_trace is not original
        synthetic.generate_trace(synthetic.WEB_VM, seed=1, scale=0.01)
    assert synthetic.generate_trace is original
    assert runner.generate_trace is original
    _, calls, per_fn = tracing.layer_totals(rec)
    assert per_fn["generate_trace"] == 1 and calls["traces"] == 1


def test_calibration_is_positive_and_small():
    inner, outer = tracing.calibrate(calls=20_000, trials=2)
    assert 0.0 <= inner < 1e-4 and 0.0 < inner + outer < 1e-4


# -- metric names ---------------------------------------------------------


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.per_layer_units()
    for name, unit in {**e2e, **layer}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


class TinyColumnar(workloads.PodWriteColumnar):
    scale = 0.02


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, trace):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TinyColumnar())
    args = argparse.Namespace(workload="tiny", seed=3, seconds=0.0, trace=trace)
    assert run.run_one(args) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    units = run.per_layer_units() if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]}
    for name, unit in units.items():
        assert printed[name] == unit
    assert printed["failed_op_ratio"] == "ratio"


# -- workloads ------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_measures_at_least_10k_requests(name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(HELD_OUT_SEED)
    assert workloads.measured_requests(wl.traces(inputs)) >= 10_000


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_held_out_seed_is_clean_and_repeats_exactly(name):
    wl = workloads.WORKLOADS[name]
    runs = []
    for _ in range(2):
        inputs = wl.setup(HELD_OUT_SEED)
        result = wl.replay(inputs, wl.fresh(inputs))
        check = wl.check(inputs, result)
        assert check.problems == [] and check.failed_requests == 0
        runs.append(result)
    assert wl.reference_check(inputs, runs[0]) == []
    assert workloads.fingerprint(runs[0]) == workloads.fingerprint(runs[1])
    written = workloads.written_blocks(wl.traces(inputs))
    first, second = (run.end_to_end_sim(r, written) for r in runs)
    assert first == second
    assert all(v > 0 for v in first.values())
    assert run.sim_counters(runs[0]) == run.sim_counters(runs[1])
