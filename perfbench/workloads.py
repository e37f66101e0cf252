"""The benchmark's three workloads: inputs, replay, output checks.

Each workload builds its inputs from the benchmark seed (``setup``),
makes the fresh per-replay state a replay consumes (``fresh``), replays
through a public entry point (``replay``) and checks the result
(``check``).  Only public functions are called, and always through
their module, so the traced run's wrappers see every call.

Why each workload exists, and its generator overrides, is written up
in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.baselines.base import DedupScheme
from repro.cluster import replay as cluster_replay
from repro.cluster.directory import Consistency, DirectoryConfig, GcSpec, KillSpec
from repro.cluster.replay import ClusterConfig
from repro.experiments import runner
from repro.faults.plan import (
    FailSlowSpec,
    FaultPlan,
    LatentSectorErrorSpec,
    MemberFailureSpec,
    RetryPolicy,
)
from repro.jobs.plan import AdmissionSpec, JobsConfig
from repro.obs.slo import SloPolicy
from repro.obs.timeline import TimelineConfig
from repro.sim import batch, replay
from repro.sim.replay import ReplayConfig, ReplayResult
from repro.sim.request import OpType
from repro.traces import columnar, synthetic
from repro.traces.format import Trace
from repro.traces.synthetic import WEB_VM, TraceSpec


@dataclass
class Check:
    """Outcome of a workload's output checks on one replay."""

    #: Requests that failed: wrong reads, unavailable lookups, or
    #: requests that never completed.
    failed_requests: int = 0
    #: Whole-run checks that did not hold (each fails every request).
    problems: List[str] = field(default_factory=list)


def fingerprint(result: ReplayResult) -> str:
    """Every simulated output of a replay, as one canonical string.

    Covers ``benchmarks/emit_bench.py``'s fields (metrics, scheme
    stats, utilisation, capacity, iCache epochs) plus the sections the
    armed features add.
    """
    return json.dumps(
        {
            "summary": result.summary(),
            "stats": result.scheme_stats,
            "util": result.utilisation,
            "capacity": result.capacity_blocks,
            "epochs": result.epoch_timeline,
            "faults": result.fault_stats,
            "jobs": result.jobs_stats,
            "slo": result.slo_stats,
            "spans": len(result.spans) if result.spans is not None else None,
        },
        sort_keys=True,
        default=str,
    )


def written_blocks(traces: Sequence[Trace]) -> int:
    """Distinct logical blocks written, summed over volumes."""
    total = 0
    for trace in traces:
        lbas = set()
        for rec in trace.records:
            if rec.op is OpType.WRITE:
                lbas.update(range(rec.lba, rec.lba + rec.nblocks))
        total += len(lbas)
    return total


def measured_requests(traces: Sequence[Trace]) -> int:
    return sum(len(t.records) - t.warmup_count for t in traces)


class Workload:
    """One named input set and how to replay and check it."""

    name = ""
    why = ""
    #: Functions (``Class.method`` as the tracer names them) that must
    #: fire at least once in this workload's traced run.
    must_fire: Tuple[str, ...] = ()

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def fresh(self, inputs: Any) -> Any:
        """Per-replay state: new schemes, since a replay mutates them."""
        raise NotImplementedError

    def replay(self, inputs: Any, state: Any) -> ReplayResult:
        raise NotImplementedError

    def traces(self, inputs: Any) -> List[Trace]:
        raise NotImplementedError

    def reference_check(self, inputs: Any, result: ReplayResult) -> List[str]:
        """Checks that need a second, differently driven replay."""
        return []

    def check(self, inputs: Any, result: ReplayResult) -> Check:
        out = Check()
        expected = measured_requests(self.traces(inputs))
        done = result.metrics.requests
        if done != expected:
            out.failed_requests += max(0, expected - done)
            out.problems.append(f"{done} of {expected} measured requests completed")
        return out


# ----------------------------------------------------------------------
# W1: write-heavy POD through the columnar batch driver
# ----------------------------------------------------------------------


@dataclass
class SingleInputs:
    trace: Trace
    ctrace: Optional[columnar.ColumnarTrace]
    config: ReplayConfig


class PodWriteColumnar(Workload):
    name = "pod-write-columnar"
    why = (
        "write-heavy web-vm, fingerprint set far above the index cache: "
        "loads Select-Dedupe planning, Index/Map tables and LRU/ghost caches"
    )
    spec: TraceSpec = WEB_VM
    scale = 1.0
    must_fire = (
        "generate_trace",
        "ColumnarTrace.from_trace",
        "replay_trace",
        "DedupScheme.plan_batch",
        "DedupScheme.on_epoch",
        "ICache.on_epoch",
        "ICache.read_lookup",
        "categorize_write",
        "IndexTable.lookup",
        "MapTable.set_mapping",
        "LRUCache.get",
        "LRUCache.put",
        "GhostCache.record_eviction",
        "RegionMap.home_of",
        "MetricsCollector.record",
    )

    def setup(self, seed: int) -> SingleInputs:
        trace = synthetic.generate_trace(self.spec, seed=seed, scale=self.scale)
        return SingleInputs(trace, columnar.ColumnarTrace.from_trace(trace), ReplayConfig())

    def fresh(self, inputs: SingleInputs) -> DedupScheme:
        return runner.build_scheme("POD", self.spec, scale=self.scale)

    def replay(self, inputs: SingleInputs, state: DedupScheme) -> ReplayResult:
        return replay.replay_trace(
            inputs.ctrace, state, inputs.config, batch_size=batch.DEFAULT_BATCH_SIZE
        )

    def traces(self, inputs: SingleInputs) -> List[Trace]:
        return [inputs.trace]

    def reference_check(self, inputs: SingleInputs, result: ReplayResult) -> List[str]:
        obj = replay.replay_trace(inputs.trace, self.fresh(inputs), inputs.config)
        if fingerprint(obj) != fingerprint(result):
            return ["columnar replay differs from the object-path replay"]
        return []


# ----------------------------------------------------------------------
# W2: read-dominant POD on the object event loop, faults armed
# ----------------------------------------------------------------------

#: web-vm turned read-dominant: 20% writes, reads drawn from the 1024
#: most recent write segments with Zipf 0.9 popularity, and a 2 MiB
#: DRAM budget (at scale 1) that holds about half the read blocks.
READ_SPEC: TraceSpec = replace(
    WEB_VM,
    name="web-vm-read",
    write_ratio=0.2,
    read_zipf_s=0.9,
    recent_segments=1024,
    p_cold_read=0.05,
    memory_bytes=2 * 1024 * 1024,
)

#: Latent sector errors the fault plan places.
LSE_SITES = 4


def place_faults(trace: Trace, scheme: DedupScheme, seed: int) -> FaultPlan:
    """A fault plan whose every fault fires in the measured span.

    With ``t0`` the first measured arrival and ``D`` the measured
    span: disk 1 runs 1.5x slow over ``[t0 + 0.1 D, t0 + 0.2 D]``,
    disk 2 dies at ``t0 + 0.55 D`` and is rebuilt, and each latent
    sector error sits under a measured read, before the failure, whose
    RAID row no earlier request touched -- so that read is the first
    I/O to reach the bad sector.
    """
    recs = trace.records
    t0 = recs[trace.warmup_count].time
    span = recs[-1].time - t0
    fail_at = t0 + 0.55 * span
    geometry = ReplayConfig().geometry()
    row_blocks = geometry.data_disks * geometry.stripe_unit_blocks
    touched = set()
    sites: List[int] = []
    for i, rec in enumerate(recs):
        rows = range(rec.lba // row_blocks, (rec.lba + rec.nblocks - 1) // row_blocks + 1)
        if (
            len(sites) < LSE_SITES
            and i >= trace.warmup_count
            and rec.op is OpType.READ
            and rec.time < fail_at - 0.05 * span
            and not any(r in touched for r in rows)
        ):
            sites.append(scheme.regions.home_of(rec.lba))
        touched.update(rows)
    return FaultPlan(
        seed=seed,
        latent_sector_errors=LatentSectorErrorSpec(pbas=tuple(sites)),
        lse_retry=RetryPolicy(max_retries=2, backoff=0.0005),
        fail_slow=(
            FailSlowSpec(disk=1, start=t0 + 0.1 * span, end=t0 + 0.2 * span, multiplier=1.5),
        ),
        member_failure=MemberFailureSpec(
            disk=2, time=fail_at, rows_per_batch=64, interval=0.02, capacity_aware=True
        ),
    )


class PodReadFaults(Workload):
    name = "pod-read-faults"
    why = (
        "read-dominant web-vm whose hot reads fit the iCache, on the object "
        "event loop with LSEs, a fail-slow disk and a member rebuild"
    )
    spec: TraceSpec = READ_SPEC
    scale = 1.0
    must_fire = (
        "generate_trace",
        "replay_trace",
        "Simulator.issue_volume_ops",
        "Simulator.service_disk_ops",
        "DedupScheme.process",
        "DedupScheme.on_epoch",
        "ICache.read_lookup",
        "ICache.read_insert",
        "ICache.on_epoch",
        "IndexTable.lookup",
        "MapTable.translate",
        "LRUCache.get",
        "RaidArray.map",
        "RaidArray.map_degraded",
        "Disk.service",
        "RegionMap.home_of",
        "MetricsCollector.record",
        "FaultInjector.on_disk_op",
        "ContentOracle.check_read",
        "ContentOracle.note_write",
    )

    def setup(self, seed: int) -> SingleInputs:
        trace = synthetic.generate_trace(self.spec, seed=seed, scale=self.scale)
        plan = place_faults(trace, self.fresh(None), seed)
        return SingleInputs(trace, None, ReplayConfig(faults=plan))

    def fresh(self, inputs: Optional[SingleInputs]) -> DedupScheme:
        return runner.build_scheme("POD", self.spec, scale=self.scale)

    def replay(self, inputs: SingleInputs, state: DedupScheme) -> ReplayResult:
        return replay.replay_trace(inputs.trace, state, inputs.config)

    def traces(self, inputs: SingleInputs) -> List[Trace]:
        return [inputs.trace]

    def check(self, inputs: SingleInputs, result: ReplayResult) -> Check:
        out = super().check(inputs, result)
        stats = result.fault_stats or {}
        counters = stats.get("counters", {})
        oracle = stats.get("oracle", {})
        out.failed_requests += oracle.get("mismatches", 0)
        plan = inputs.config.faults
        assert plan is not None
        t0 = inputs.trace.records[inputs.trace.warmup_count].time
        sites = len(plan.latent_sector_errors.pbas)
        rebuild = stats.get("rebuild", {})
        wanted = [
            (sites == LSE_SITES, f"placed {sites} of {LSE_SITES} latent sector errors"),
            (counters.get("lse_reconstructions", 0) == sites, "not every LSE was reconstructed"),
            (counters.get("lse_still_latent", 0) == 0, "an LSE never fired"),
            (counters.get("lse_unrecoverable", 0) == 0, "an LSE was unrecoverable"),
            (counters.get("fail_slow_windows", 0) == 1, "fail-slow window not armed"),
            (all(fs.start >= t0 for fs in plan.fail_slow), "fail-slow starts in warm-up"),
            (counters.get("member_failures", 0) == 1, "member failure did not fire"),
            (plan.member_failure is not None and plan.member_failure.time >= t0,
             "member failure in warm-up"),
            (counters.get("rebuilds_completed", 0) == 1 and rebuild.get("done") is True,
             "rebuild did not complete"),
            (rebuild.get("rows_rebuilt", 0) > 0, "rebuild rewrote no rows"),
            (oracle.get("reads_checked", 0) > 0, "content oracle checked no reads"),
            (oracle.get("mismatches", 0) == 0, "content oracle found wrong reads"),
        ]
        out.problems.extend(msg for ok, msg in wanted if not ok)
        return out


# ----------------------------------------------------------------------
# W3: the armed cluster (replicated directory, GC, jobs, telemetry)
# ----------------------------------------------------------------------

#: The objectives of ``examples/slo.json``.
SLO = SloPolicy.from_dict(
    {
        "objectives": [
            {"name": "write-p-latency", "metric": "latency", "threshold": 0.02,
             "scope": "run", "op": "write", "target": 0.95, "burn_threshold": 1.0},
            {"name": "read-p-latency", "metric": "latency", "threshold": 0.05,
             "scope": "run", "op": "read", "target": 0.99, "burn_threshold": 2.0},
            {"name": "tenant0-latency", "metric": "latency", "threshold": 0.03,
             "scope": "volume:0", "op": "all", "target": 0.95, "burn_threshold": 1.0},
            {"name": "run-throughput", "metric": "throughput", "threshold": 10.0,
             "scope": "run", "op": "all", "target": 0.9, "burn_threshold": 0.5},
        ]
    }
)


@dataclass
class ClusterInputs:
    volumes: List[Trace]
    cluster: ClusterConfig
    config: ReplayConfig


class ClusterQuorumArmed(Workload):
    name = "cluster-quorum-armed"
    why = (
        "3-node cluster, R=3 quorum directory with a metadata kill, online GC, "
        "jobs, timeline, spans and SLO: the only load on cluster, jobs and obs"
    )
    spec: TraceSpec = WEB_VM
    nodes = 3
    scale = 0.3
    must_fire = (
        "generate_trace",
        "salt_fingerprints",
        "replay_cluster",
        "DedupScheme.process",
        "ICache.on_epoch",
        "IndexTable.lookup",
        "MapTable.set_mapping",
        "LRUCache.get",
        "ClusterNode.service_volume_ops",
        "MetricsCollector.record",
        "MetricsCollector.record_node",
        "FingerprintRouter.route_replicas",
        "NetworkFabric.round_trip",
        "ReplicatedDirectory.lookup_register",
        "GcJob.run_step",
        "AdmissionController.admit",
        "ContentOracle.check_read",
        "TimelineSampler.note_request",
        "SpanTracer.start",
    )

    def setup(self, seed: int) -> ClusterInputs:
        # One tenant per node, each generated from its own seed and
        # salted into its own fingerprint family.  Clones of one base
        # trace (runner.multi_tenant_traces) would replay the same
        # bursts on every node, leaving the cluster's tail latency with
        # one trace's worth of independent samples.
        volumes = [
            synthetic.salt_fingerprints(
                synthetic.generate_trace(
                    self.spec, seed=seed * self.nodes + i, scale=self.scale
                ),
                i * synthetic.FP_FAMILY_STRIDE,
                name=f"{self.spec.name}/n{i}",
            )
            for i in range(self.nodes)
        ]
        # Kill a metadata node a quarter of the way into the span in
        # which every tenant is past its warm-up.
        start = max(v.records[v.warmup_count].time for v in volumes)
        end = min(v.records[-1].time for v in volumes)
        cluster = ClusterConfig(
            directory=DirectoryConfig(
                replication=3,
                consistency=Consistency.QUORUM,
                gc=GcSpec(start=5.0),
                kill=KillSpec(node=1, time=start + 0.25 * (end - start)),
            ),
            verify_content=True,
        )
        config = ReplayConfig(
            jobs=JobsConfig(admission=AdmissionSpec()),
            timeline=TimelineConfig(window=1.0),
            spans=True,
            slo=SLO,
        )
        return ClusterInputs(volumes, cluster, config)

    def fresh(self, inputs: ClusterInputs) -> List[DedupScheme]:
        # run_cluster's sizing for one tenant per node.
        return [
            runner.build_scheme("POD", self.spec, scale=self.scale)
            for _ in range(self.nodes)
        ]

    def replay(self, inputs: ClusterInputs, state: List[DedupScheme]) -> ReplayResult:
        return cluster_replay.replay_cluster(
            inputs.volumes, state, inputs.cluster, inputs.config
        )

    def traces(self, inputs: ClusterInputs) -> List[Trace]:
        return inputs.volumes

    def check(self, inputs: ClusterInputs, result: ReplayResult) -> Check:
        out = super().check(inputs, result)
        cs = result.cluster_stats or {}
        directory = cs.get("directory", {})
        gc = directory.get("gc", {})
        oracles = cs.get("oracle", [])
        jobs = result.jobs_stats or {}
        ledger = jobs.get("oracle", {}).get("violations", ["no job ledger"])
        mismatches = sum(o.get("mismatches", 0) for o in oracles)
        unavailable = directory.get("unavailable_lookups", 0)
        out.failed_requests += mismatches + unavailable
        wanted = [
            (len(oracles) == self.nodes, "content oracle missing on some node"),
            (all(o.get("reads_checked", 0) > 0 for o in oracles), "an oracle checked no reads"),
            (mismatches == 0, "content oracle found wrong reads"),
            (unavailable == 0, "directory lookups were unavailable"),
            (directory.get("kills", 0) == 1, "metadata kill did not fire"),
            (directory.get("read_repairs", 0) > 0, "no read repairs"),
            (gc.get("gc_reclaimed_blocks", 0) > 0, "online GC reclaimed nothing"),
            (gc.get("gc_live_skips", 1) == 0, "GC tried to collect a live block"),
            (ledger == [], f"job step ledger: {ledger}"),
            (all(j.get("state") == "done" for j in jobs.get("jobs", [{}])), "a job is not done"),
        ]
        out.problems.extend(msg for ok, msg in wanted if not ok)
        return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (PodWriteColumnar(), PodReadFaults(), ClusterQuorumArmed())
}
