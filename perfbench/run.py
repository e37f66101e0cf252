"""Repository benchmark: replay throughput and simulated POD latency.

Runs one workload (see ``workloads.py``) from the repository checkout
this file sits in and prints every metric as ``name value unit``; the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: inputs are built
``SETUP_REPEATS`` times (``setup_s`` is the median), then the workload
is replayed from fresh state until ``--seconds`` are used, and
``replay_req_per_s`` is the median replay.  ``--trace 1`` reports the
per-layer metrics from untraced/traced pairs (see ``tracing.py``).
``--workload all`` runs every workload, each in its own process, and
exits nonzero if any output check failed.

Usage::

    python3 perfbench/run.py --workload pod-write-columnar --seed 1 \\
        --seconds 15 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Input builds per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest timed replays per ``--trace 0`` run, whatever ``--seconds``.
MIN_REPLAYS = 2

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END: Dict[str, str] = {
    "replay_req_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_resp_ms_mean": "ms",
    "sim_resp_ms_p50": "ms",
    "sim_resp_ms_p999": "ms",
    "sim_read_resp_ms_mean": "ms",
    "sim_write_resp_ms_mean": "ms",
    "removed_write_pct": "%",
    "capacity_blocks_per_user_block": "ratio",
}

#: Simulated per-layer counters (``--trace 1``): name -> unit.
SIM_COUNTERS: Dict[str, str] = {
    "sim.core.unique_requests": "count",
    "sim.core.cat1_requests": "count",
    "sim.core.cat2_requests": "count",
    "sim.core.cat3_requests": "count",
    "sim.core.icache_repartitions": "count",
    "sim.core.icache_swapped_bytes": "bytes",
    "sim.core.dedupe_yield": "ratio",
    "sim.dedup.index_hit_ratio": "ratio",
    "sim.dedup.map_entries": "count",
    "sim.cache.read_hit_ratio": "ratio",
    "sim.storage.disk_ops": "count",
    "sim.storage.disk_busy_s": "s",
    "sim.storage.seek_s": "s",
    "sim.storage.nvram_peak_bytes": "bytes",
    "sim.faults.lse_reconstructs": "count",
    "sim.faults.rebuild_rows": "count",
    "sim.cluster.remote_lookups": "count",
    "sim.cluster.net_bytes": "bytes",
    "sim.cluster.read_repairs": "count",
    "sim.cluster.unavailable_lookups": "count",
    "sim.cluster.gc_reclaimed": "count",
    "sim.jobs.stale_reclaims": "count",
    "sim.jobs.ledger_violations": "count",
    "sim.obs.spans": "count",
}


def per_layer_units() -> Dict[str, str]:
    """Per-layer metrics (``--trace 1``): name -> unit."""
    from tracing import LAYER_NAMES

    units: Dict[str, str] = {}
    for layer in LAYER_NAMES:
        units[f"host.{layer}.self_s"] = "s"
        units[f"host.{layer}.calls"] = "count"
    units["host.trace_overhead_pct"] = "%"
    units.update(SIM_COUNTERS)
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end_sim(result: Any, written: int) -> Dict[str, float]:
    """The simulated end-to-end metrics of one replay."""
    m = result.metrics.as_dict()
    return {
        "sim_resp_ms_mean": m["mean_response"] * 1e3,
        "sim_resp_ms_p50": m["median_response"] * 1e3,
        "sim_resp_ms_p999": m["p999_response"] * 1e3,
        "sim_read_resp_ms_mean": m["read_mean_response"] * 1e3,
        "sim_write_resp_ms_mean": m["write_mean_response"] * 1e3,
        "removed_write_pct": result.removed_write_pct,
        "capacity_blocks_per_user_block": _ratio(result.capacity_blocks, written),
    }


def sim_counters(result: Any) -> Dict[str, float]:
    """The simulated per-layer counters of one replay's report."""
    st = result.scheme_stats
    disks = result.utilisation.values()
    faults = result.fault_stats or {}
    cluster = result.cluster_stats or {}
    directory = cluster.get("directory") or {}
    jobs = result.jobs_stats or {}
    read_hits = st.get("cache_read_hits", 0)
    index_hits = st.get("index_hits", 0)
    return {
        "sim.core.unique_requests": st.get("category_0_unique", 0),
        "sim.core.cat1_requests": st.get("category_1_fully_redundant", 0),
        "sim.core.cat2_requests": st.get("category_2_scattered_partial", 0),
        "sim.core.cat3_requests": st.get("category_3_sequential_partial", 0),
        "sim.core.icache_repartitions": st.get("cache_repartitions", 0),
        "sim.core.icache_swapped_bytes": st.get("cache_total_swapped_bytes", 0.0),
        "sim.core.dedupe_yield": _ratio(
            st.get("write_blocks_deduped", 0), st.get("chunks_hashed", 0)
        ),
        "sim.dedup.index_hit_ratio": _ratio(
            index_hits, index_hits + st.get("index_misses", 0)
        ),
        "sim.dedup.map_entries": st.get("map_entries", 0),
        "sim.cache.read_hit_ratio": _ratio(
            read_hits, read_hits + st.get("cache_read_misses", 0)
        ),
        "sim.storage.disk_ops": sum(d["ops"] for d in disks),
        "sim.storage.disk_busy_s": sum(d["busy_time"] for d in disks),
        "sim.storage.seek_s": sum(d["seek_time"] for d in disks),
        "sim.storage.nvram_peak_bytes": st.get("nvram_peak_bytes", 0),
        "sim.faults.lse_reconstructs": faults.get("counters", {}).get(
            "lse_reconstructions", 0
        ),
        "sim.faults.rebuild_rows": (faults.get("rebuild") or {}).get("rows_rebuilt", 0),
        "sim.cluster.remote_lookups": cluster.get("remote_lookups", 0),
        "sim.cluster.net_bytes": (cluster.get("fabric") or {}).get("bytes_moved", 0),
        "sim.cluster.read_repairs": directory.get("read_repairs", 0),
        "sim.cluster.unavailable_lookups": directory.get("unavailable_lookups", 0),
        "sim.cluster.gc_reclaimed": (directory.get("gc") or {}).get(
            "gc_reclaimed_blocks", 0
        ),
        "sim.jobs.stale_reclaims": (jobs.get("counters") or {}).get(
            "stale_lease_reclaims", 0
        ),
        "sim.jobs.ledger_violations": len(
            (jobs.get("oracle") or {}).get("violations", [])
        ),
        "sim.obs.spans": len(result.spans) if result.spans is not None else 0,
    }


class Tally:
    """Requests attempted and failed, and the checks that broke."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def replay(self, requests: int, check: Any) -> None:
        """Count one replay of ``requests`` with its check outcome."""
        self.attempted += requests
        self.failed += requests if check.problems else check.failed_requests
        self.problems.extend(check.problems)

    def broken(self, requests: int, problems: List[str]) -> None:
        """A whole-run check failed: every request of the replay fails."""
        if problems:
            self.failed += requests
            self.problems.extend(problems)


def _timed(fn, *args) -> Tuple[Any, float]:
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _build(wl: Any, seed: int) -> Tuple[Tuple[Any, Any], float]:
    """Inputs plus the first replay's state, and the time it took."""

    def build() -> Tuple[Any, Any]:
        inputs = wl.setup(seed)
        return inputs, wl.fresh(inputs)

    return _timed(build)


def measure(wl: Any, seed: int, seconds: float) -> Tuple[Dict[str, float], Tally]:
    """``--trace 0``: the end-to-end metrics of one workload."""
    from workloads import fingerprint, written_blocks

    tally = Tally()
    setups: List[float] = []
    for _ in range(SETUP_REPEATS):
        (inputs, state), took = _build(wl, seed)
        setups.append(took)
    requests = sum(len(t.records) for t in wl.traces(inputs))

    replays: List[float] = []
    first = None
    started = time.perf_counter()
    while True:
        if replays:
            state = wl.fresh(inputs)
        result, took = _timed(wl.replay, inputs, state)
        replays.append(took)
        if first is None:
            first, first_fp = result, fingerprint(result)
            check = wl.check(inputs, result)
        elif fingerprint(result) != first_fp:
            tally.broken(requests, ["repeated replay gave a different result"])
        tally.replay(requests, check)
        del result
        elapsed = time.perf_counter() - started
        if len(replays) >= MIN_REPLAYS and elapsed + statistics.median(replays) > seconds:
            break
    # Peak memory of set-up and replays, before the checks allocate.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.broken(requests, wl.reference_check(inputs, first))

    metrics = {
        "replay_req_per_s": requests / statistics.median(replays),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics.update(end_to_end_sim(first, written_blocks(wl.traces(inputs))))
    return metrics, tally


def measure_traced(
    wl: Any, seed: int, seconds: float, spans_out: Path
) -> Tuple[Dict[str, float], Tally]:
    """``--trace 1``: per-layer host time from untraced/traced pairs."""
    import tracing
    from workloads import fingerprint

    tally = Tally()
    inner, outer = tracing.calibrate()
    self_s: Dict[str, List[float]] = {layer: [] for layer in tracing.LAYER_NAMES}
    overheads: List[float] = []
    calls = None
    first = None
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        (inputs, state), _ = _build(wl, seed)
        plain = wl.replay(inputs, state)
        untraced = time.perf_counter() - t0
        requests = sum(len(t.records) for t in wl.traces(inputs))
        del inputs, state

        rec = tracing.SpanRecorder()
        with tracing.traced(rec):
            t0 = time.perf_counter()
            (inputs, state), _ = _build(wl, seed)
            result = wl.replay(inputs, state)
            traced = time.perf_counter() - t0
        overheads.append((traced - untraced) / untraced * 100.0)
        secs, layer_calls, fn_calls = tracing.layer_totals(rec, inner, outer)
        for layer, value in secs.items():
            self_s[layer].append(value)

        if fingerprint(result) != fingerprint(plain):
            tally.broken(requests, ["traced replay differs from the untraced replay"])
        if first is None:
            first = plain
            calls = layer_calls
            check = wl.check(inputs, plain)
            silent = [name for name in wl.must_fire if not fn_calls.get(name)]
            tally.broken(requests, [f"wrapped function never fired: {n}" for n in silent])
            tally.broken(requests, wl.reference_check(inputs, plain))
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            rec.write(str(spans_out))
        elif layer_calls != calls:
            tally.broken(requests, ["traced call counts differ between passes"])
        tally.replay(requests, check)
        del rec, result, plain, inputs, state
        if time.perf_counter() - started >= seconds:
            break

    metrics: Dict[str, float] = {}
    for layer in tracing.LAYER_NAMES:
        metrics[f"host.{layer}.self_s"] = statistics.median(self_s[layer])
        metrics[f"host.{layer}.calls"] = calls[layer]
    metrics["host.trace_overhead_pct"] = statistics.median(overheads)
    metrics.update(sim_counters(first))
    return metrics, tally


def run_one(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    units = per_layer_units() if args.trace else END_TO_END
    try:
        if args.trace:
            spans_out = HERE / "out" / f"spans-{wl.name}.npz"
            metrics, tally = measure_traced(wl, args.seed, args.seconds, spans_out)
        else:
            metrics, tally = measure(wl, args.seed, args.seconds)
    except ReproError as exc:
        # The content oracle and the job ledger raise at the end of a
        # replay whose output is wrong; nothing of that run counts.
        print(f"check failed: {type(exc).__name__}: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for problem in dict.fromkeys(tally.problems):
        print(f"check failed: {problem}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(f"failed_op_ratio {tally.failed / tally.attempted!r} ratio")
    correct = not tally.problems and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a child process; nonzero on any failure."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        status = status or child.returncode
    return status


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
