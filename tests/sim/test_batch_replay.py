"""Golden bit-identity: the columnar batch driver vs the object path.

The batch driver's contract is *bit*-identity, not statistical
closeness: every metric, scheme counter, disk utilisation figure and
epoch timeline entry must match the event-loop replay exactly, for
every scheme, at any batch size, for single- and multi-volume runs.
These tests are the contract's pin; the performance side lives in
benchmarks/ (bench_replay_throughput.py, emit_bench.py).
"""

from __future__ import annotations

import json

import pytest

from repro.baselines.base import SchemeConfig
from repro.dedup.chunking import ChunkingConfig
from repro.errors import ConfigError
from repro.experiments.runner import SCHEME_CLASSES
from repro.sim.replay import ReplayConfig, replay_trace, replay_traces
from repro.storage.raid import RaidLevel
from repro.traces.columnar import ColumnarTrace
from repro.traces.synthetic import HOMES, WEB_VM, generate_trace

SCALE = 0.02


@pytest.fixture(scope="module")
def web_trace():
    return generate_trace(WEB_VM, scale=SCALE)


@pytest.fixture(scope="module")
def homes_trace():
    return generate_trace(HOMES, seed=7, scale=0.015)


def fingerprint(result) -> str:
    """Everything observable about a replay, as one canonical string."""
    return json.dumps(
        {
            "summary": result.metrics.as_dict(),
            "stats": result.scheme_stats,
            "util": result.utilisation,
            "writes_total": result.writes_total,
            "write_requests_removed": result.write_requests_removed,
            "capacity_blocks": result.capacity_blocks,
            "epochs": result.epoch_timeline,
            "volumes": result.volumes,
        },
        sort_keys=True,
        default=str,
    )


def replay(traces, scheme_name, batch_size, config=None, **overrides):
    params = dict(
        logical_blocks=sum(t.logical_blocks for t in traces),
        memory_bytes=256 * 1024,
    )
    params.update(overrides)
    scheme = SCHEME_CLASSES[scheme_name](SchemeConfig(**params))
    return replay_traces(
        traces,
        scheme,
        config if config is not None else ReplayConfig(),
        batch_size=batch_size,
    )


@pytest.mark.parametrize("scheme_name", sorted(SCHEME_CLASSES))
def test_single_volume_bit_identity(scheme_name, web_trace):
    base = fingerprint(replay([web_trace], scheme_name, None))
    for batch_size in (1, 7, 4096):
        assert (
            fingerprint(replay([web_trace], scheme_name, batch_size)) == base
        ), f"{scheme_name} diverges at batch_size={batch_size}"


@pytest.mark.parametrize("scheme_name", sorted(SCHEME_CLASSES))
def test_multi_volume_bit_identity(scheme_name, web_trace, homes_trace):
    traces = [web_trace, homes_trace]
    base = fingerprint(replay(traces, scheme_name, None))
    for batch_size in (1, 4096):
        assert (
            fingerprint(replay(traces, scheme_name, batch_size)) == base
        ), f"{scheme_name} diverges at batch_size={batch_size}"


@pytest.mark.parametrize("scheme_name", ["Native", "POD"])
def test_columnar_trace_input_identical(scheme_name, web_trace):
    """A pre-interned ColumnarTrace replays identically to the Trace it
    came from -- on the batch driver and (via lossless to_trace
    materialisation) on the object path."""
    ctrace = ColumnarTrace.from_trace(web_trace)
    base = fingerprint(replay([web_trace], scheme_name, None))
    assert fingerprint(replay([ctrace], scheme_name, None)) == base
    assert fingerprint(replay([ctrace], scheme_name, 4096)) == base


@pytest.mark.parametrize("scheme_name", ["POD", "Full-Dedupe"])
def test_chunking_bit_identity(scheme_name, web_trace):
    """Content-defined chunking is stream-order-dependent state; the
    batch driver must feed it in exactly arrival order."""
    chunking = ChunkingConfig(min_blocks=2, avg_blocks=4, max_blocks=16)
    base = fingerprint(
        replay([web_trace], scheme_name, None, chunking=chunking)
    )
    got = fingerprint(
        replay([web_trace], scheme_name, 4096, chunking=chunking)
    )
    assert got == base


def test_raid0_bit_identity(web_trace):
    config = ReplayConfig(raid_level=RaidLevel.RAID0)
    base = fingerprint(replay([web_trace], "POD", None, config=config))
    assert fingerprint(replay([web_trace], "POD", 4096, config=config)) == base


def test_single_disk_bit_identity(web_trace):
    config = ReplayConfig(raid_level=RaidLevel.SINGLE, ndisks=1)
    base = fingerprint(replay([web_trace], "Native", None, config=config))
    assert (
        fingerprint(replay([web_trace], "Native", 4096, config=config)) == base
    )


#: Array geometries whose small stripe units make multi-fragment
#: extents common: (level, ndisks, stripe unit in blocks).
GEOMETRIES = [
    (RaidLevel.RAID5, 3, 16),
    (RaidLevel.RAID5, 5, 4),
    (RaidLevel.RAID5, 4, 2),
    (RaidLevel.RAID0, 2, 4),
    (RaidLevel.SINGLE, 1, 16),
]


@pytest.mark.parametrize("volumes", [1, 2], ids=["web", "web+homes"])
@pytest.mark.parametrize("scheme_name", ["Native", "POD"])
@pytest.mark.parametrize(
    "level,ndisks,stripe_unit",
    GEOMETRIES,
    ids=[f"{lv.name}-{nd}x{su}" for lv, nd, su in GEOMETRIES],
)
def test_geometry_bit_identity(
    level, ndisks, stripe_unit, scheme_name, volumes, web_trace, homes_trace
):
    """Every extent shape the RAID mapping can produce (one fragment,
    two, a whole row or more, RAID-5 full stripes) replays identically
    on the batch driver and the object path."""
    config = ReplayConfig(
        raid_level=level, ndisks=ndisks, stripe_unit_blocks=stripe_unit
    )
    traces = [web_trace, homes_trace][:volumes]
    base = fingerprint(replay(traces, scheme_name, None, config=config))
    assert fingerprint(replay(traces, scheme_name, 4096, config=config)) == base


def test_ineligible_config_falls_back(web_trace):
    """Configs outside the batch fast path (event-driven scheduler)
    silently take the object path -- same results, no error."""
    from repro.storage.scheduler import SchedulingPolicy

    config = ReplayConfig(scheduler=SchedulingPolicy.CLOOK)
    base = fingerprint(replay([web_trace], "POD", None, config=config))
    assert fingerprint(replay([web_trace], "POD", 4096, config=config)) == base


@pytest.mark.parametrize("batch_size", [0, -3])
@pytest.mark.parametrize("armed", ["none", "scheduler", "recorder"])
def test_batch_size_validated_on_every_path(batch_size, armed, web_trace):
    """A non-positive batch size is rejected whichever driver would
    have taken the replay, not only by the batch driver."""
    from repro.obs.trace import TraceRecorder
    from repro.storage.scheduler import SchedulingPolicy

    config = ReplayConfig(
        scheduler=SchedulingPolicy.FCFS if armed == "scheduler" else None
    )
    recorder = TraceRecorder() if armed == "recorder" else None
    scheme = SCHEME_CLASSES["Native"](
        SchemeConfig(logical_blocks=web_trace.logical_blocks, memory_bytes=256 * 1024)
    )
    with pytest.raises(ConfigError, match="batch_size"):
        replay_traces(
            [web_trace], scheme, config, recorder=recorder, batch_size=batch_size
        )


def test_replay_trace_entry_point(web_trace):
    scheme_a = SCHEME_CLASSES["POD"](
        SchemeConfig(logical_blocks=web_trace.logical_blocks, memory_bytes=256 * 1024)
    )
    scheme_b = SCHEME_CLASSES["POD"](
        SchemeConfig(logical_blocks=web_trace.logical_blocks, memory_bytes=256 * 1024)
    )
    a = replay_trace(web_trace, scheme_a)
    b = replay_trace(web_trace, scheme_b, batch_size=512)
    assert fingerprint(a) == fingerprint(b)
