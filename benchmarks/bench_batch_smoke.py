"""CI smoke: the columnar batch driver must beat the object path.

The full performance story lives in bench_replay_throughput.py and the
committed BENCH_replay.json trajectory (emit_bench.py); this file is
the cheap regression tripwire CI runs on every push.  The measured
advantage on the no-dedup fast path is ~6x (see BENCH_replay.json);
the assertion here demands 2x, low enough that a noisy shared runner
cannot flake it, high enough that losing the columnar fast path (a
silent fallback to materialised planning) fails loudly.

POD plans through the materialised ``plan_batch`` tier with
first-occurrence probe hints, which is worth about 1.6x; its case
demands 1.2x, so a silent fall-back to per-request ``process`` fails.

Bit-identity is separately pinned by tests/sim/test_batch_replay.py;
this bench re-checks the headline metric (Native) and the whole
result (POD) so a speedup obtained by diverging results can never
pass.

Runnable two ways::

    PYTHONPATH=src python benchmarks/bench_batch_smoke.py
    PYTHONPATH=src python -m pytest benchmarks/bench_batch_smoke.py -q
"""

from __future__ import annotations

import json
import time
from typing import Optional, Type, Union

from repro.baselines.base import DedupScheme, SchemeConfig
from repro.baselines.native import Native
from repro.core.pod import POD
from repro.sim.batch import DEFAULT_BATCH_SIZE
from repro.sim.replay import ReplayResult, replay_trace
from repro.traces.columnar import ColumnarTrace
from repro.traces.format import Trace
from repro.traces.synthetic import WEB_VM, generate_trace

REPEATS = 3
MIN_SPEEDUP = 2.0
MIN_POD_SPEEDUP = 1.2
TRACE = generate_trace(WEB_VM, scale=0.05, seed=1234)
CTRACE = ColumnarTrace.from_trace(TRACE)


def _replay(
    trace: Union[Trace, ColumnarTrace],
    batch_size: Optional[int],
    scheme_class: Type[DedupScheme] = Native,
) -> ReplayResult:
    scheme = scheme_class(
        SchemeConfig(logical_blocks=TRACE.logical_blocks, memory_bytes=256 * 1024)
    )
    return replay_trace(trace, scheme, batch_size=batch_size)


def _best(
    trace: Union[Trace, ColumnarTrace],
    batch_size: Optional[int],
    scheme_class: Type[DedupScheme] = Native,
) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _replay(trace, batch_size, scheme_class)
        best = min(best, time.perf_counter() - t0)
    return best


def _fingerprint(result: ReplayResult) -> str:
    """Every simulated output of a replay, as one canonical string."""
    return json.dumps(
        {
            "summary": result.summary(),
            "stats": result.scheme_stats,
            "util": result.utilisation,
            "capacity": result.capacity_blocks,
            "epochs": result.epoch_timeline,
        },
        sort_keys=True,
    )


def test_columnar_beats_object() -> None:
    obj = _best(TRACE, None)
    col = _best(CTRACE, DEFAULT_BATCH_SIZE)
    speedup = obj / col
    n = len(TRACE.records)
    print(
        f"object {n / obj:9.0f} req/s  columnar {n / col:9.0f} req/s  "
        f"speedup {speedup:5.2f}x (floor {MIN_SPEEDUP}x)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"columnar driver only {speedup:.2f}x over the object path "
        f"(floor {MIN_SPEEDUP}x) -- did the fast path silently fall back?"
    )


def test_pod_columnar_matches_and_beats_object() -> None:
    assert _fingerprint(_replay(CTRACE, DEFAULT_BATCH_SIZE, POD)) == _fingerprint(
        _replay(TRACE, None, POD)
    ), "POD's columnar replay differs from its object-path replay"
    obj = _best(TRACE, None, POD)
    col = _best(CTRACE, DEFAULT_BATCH_SIZE, POD)
    speedup = obj / col
    n = len(TRACE.records)
    print(
        f"POD: object {n / obj:9.0f} req/s  columnar {n / col:9.0f} req/s  "
        f"speedup {speedup:5.2f}x (floor {MIN_POD_SPEEDUP}x)"
    )
    assert speedup >= MIN_POD_SPEEDUP, (
        f"POD's columnar driver only {speedup:.2f}x over the object path "
        f"(floor {MIN_POD_SPEEDUP}x) -- did plan_batch fall back to process?"
    )


if __name__ == "__main__":
    test_columnar_beats_object()
    test_pod_columnar_matches_and_beats_object()
