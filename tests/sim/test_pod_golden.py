"""Golden pin of single-node POD and Select-Dedupe under index pressure.

``test_batch_replay.py`` only checks that the columnar driver agrees
with the object path; both sides run the same planning code, so a
change to that code that moves every result together passes it.  This
file pins the absolute output instead: a sha256 over a replay's
summary, scheme counters, disk utilisation, capacity and iCache epoch
timeline, on a web-vm slice with a DRAM budget small enough that the
Index table evicts, both ghost caches hit, iCache repartitions in both
directions with swap-in, writes get redirected and all three Figure-5
categories occur.  The counter checks keep the golden from going
vacuous: a configuration in which one of these paths never runs fails
loudly instead of pinning nothing.

The digests were taken before the planning path was optimised and must
not be regenerated to make an optimisation pass.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.runner import SCHEME_CLASSES, scheme_config_for
from repro.sim.batch import DEFAULT_BATCH_SIZE
from repro.sim.replay import ReplayConfig, ReplayResult, replay_trace
from repro.traces.columnar import ColumnarTrace
from repro.traces.synthetic import WEB_VM, generate_trace

SCALE = 0.05
SEED = 1
#: 64 KiB of DRAM: about 1k hot index entries against ~3.5k distinct
#: written fingerprints, and a read cache of eight blocks per side.
MEMORY_BYTES = 64 * 1024

GOLDEN = {
    "POD": "a4123fc44bbead8f0dea0d2a7d172410b613fd712ebafeb62a8ff5b40124d560",
    "Select-Dedupe": "771e1640c0f91735b525882df8af681dabc6051eecf08a718f12525b65954af0",
}


@pytest.fixture(scope="module")
def trace():
    return generate_trace(WEB_VM, seed=SEED, scale=SCALE)


def replay(trace, scheme_name: str, batch_size) -> ReplayResult:
    scheme = SCHEME_CLASSES[scheme_name](
        scheme_config_for(WEB_VM, SCALE, memory_bytes=MEMORY_BYTES)
    )
    source = ColumnarTrace.from_trace(trace) if batch_size is not None else trace
    return replay_trace(source, scheme, ReplayConfig(), batch_size=batch_size)


def digest(result: ReplayResult) -> str:
    payload = json.dumps(
        {
            "summary": result.summary(),
            "scheme_stats": result.scheme_stats,
            "utilisation": result.utilisation,
            "capacity_blocks": result.capacity_blocks,
            "epoch_timeline": result.epoch_timeline,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def assert_paths_exercised(result: ReplayResult, adaptive: bool) -> None:
    stats = result.scheme_stats
    assert stats["cache_index_evictions"] > 0
    assert stats["redirected_writes"] > 0
    assert stats["category_1_fully_redundant"] > 0
    assert stats["category_2_scattered_partial"] > 0
    assert stats["category_3_sequential_partial"] > 0
    if not adaptive:
        return
    assert stats["cache_ghost_index_hits_total"] > 0
    assert stats["cache_ghost_read_hits_total"] > 0
    for direction in ("grow_index", "grow_read"):
        assert any(
            e["direction"] == direction and e["swapped_bytes"] > 0
            for e in result.epoch_timeline
        ), f"no {direction} repartition"


@pytest.mark.parametrize("batch_size", [None, DEFAULT_BATCH_SIZE])
@pytest.mark.parametrize("scheme_name", sorted(GOLDEN))
def test_pod_output_pinned(trace, scheme_name, batch_size):
    result = replay(trace, scheme_name, batch_size)
    assert_paths_exercised(result, adaptive=scheme_name == "POD")
    assert digest(result) == GOLDEN[scheme_name]
