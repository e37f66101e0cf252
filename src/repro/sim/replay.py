"""Open-loop trace replay: trace(s) + scheme + array -> response times.

Reproduces the paper's methodology (Section IV-A): requests are
injected at their trace timestamps (open loop -- a slow disk builds a
queue rather than slowing the workload down), the first part of the
trace warms the caches and is excluded from the metrics, and user
response time is completion minus arrival.

Per request, the scheme plans a :class:`~repro.baselines.base.PlannedIO`:
a processing delay (fingerprinting), the extent ops the request must
wait for, and optional background ops (iCache swap traffic) that load
the disks without gating completion.

:func:`replay_traces` merge-sorts N timestamped streams open-loop onto
one array, each stream mapped to its own
:class:`~repro.storage.namespace.VolumeNamespace` inside one shared
dedup domain (the paper's cross-VM cloud scenario, Section I);
:func:`replay_trace` is its N=1 case.  Both run the request pipeline
(:mod:`repro.sim.pipeline`) over one node whose disks are the engine's
array; an armed fault plan adds the injector's disk hook and its
crash-recovery arrival stall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.analysis.sanitizer import PodSanitizer
from repro.baselines.base import DedupScheme
from repro.constants import BLOCKS_PER_STRIPE_UNIT
from repro.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.jobs.plan import JobsConfig
from repro.metrics.collector import MetricsCollector
from repro.obs.slo import SloPolicy
from repro.obs.spans import SpanTracer
from repro.obs.timeline import TimelineConfig, TimelineSampler
from repro.obs.trace import TraceRecorder
from repro.sim.engine import Simulator
from repro.sim.request import OpType
from repro.storage.disk import DiskParams
from repro.storage.namespace import NamespaceMapper
from repro.storage.raid import RaidArray, RaidGeometry, RaidLevel
from repro.storage.scheduler import DiskScheduler, SchedulingPolicy
from repro.storage.ssd import SsdParams
from repro.storage.volume import VolumeOp
from repro.traces.columnar import ColumnarTrace
from repro.traces.format import Trace


@dataclass(frozen=True)
class ReplayConfig:
    """Array geometry and replay options.

    Defaults mirror the paper's main setup: a 4-disk RAID-5 with a
    64 KB stripe unit (Section IV-B).
    """

    raid_level: RaidLevel = RaidLevel.RAID5
    ndisks: int = 4
    stripe_unit_blocks: int = BLOCKS_PER_STRIPE_UNIT
    disk_params: Optional[DiskParams] = None
    #: Include warm-up requests in the metrics (diagnostics only).
    collect_warmup: bool = False
    #: Disk queue discipline.  ``None`` = the fast analytic FCFS path;
    #: a :class:`SchedulingPolicy` switches to event-driven service
    #: (FCFS for validation, CLOOK for the elevator ablation).
    scheduler: Optional[SchedulingPolicy] = None
    #: Run the RAID-5 array in degraded mode with this member failed:
    #: reads touching it reconstruct from the row's survivors.
    failed_disk: Optional[int] = None
    #: SSD staging device for SAR-style schemes (None = no SSD; a
    #: scheme emitting SSD traffic without one is a config error).
    ssd_params: Optional[SsdParams] = None
    #: Debug mode: run the :class:`~repro.analysis.sanitizer.PodSanitizer`
    #: against the scheme every :attr:`sanitize_every` requests, at every
    #: epoch boundary and at end of run, raising on the first broken POD
    #: invariant.  Observation only -- enabling this must not change a
    #: single simulated completion time.
    check_invariants: bool = False
    #: Structural-check cadence, in arrived requests.
    sanitize_every: int = 1000
    #: Deterministic fault plan (see :mod:`repro.faults`).  ``None``
    #: keeps the replay on the healthy path, bit-identical to a build
    #: without the fault subsystem (zero-overhead off path).
    faults: Optional[FaultPlan] = None
    #: Override the plan's RNG seed (CLI ``--fault-seed``; requires
    #: :attr:`faults`).
    fault_seed: Optional[int] = None
    #: Windowed time-series sampling (see :mod:`repro.obs.timeline`).
    #: ``None`` keeps the replay on the zero-overhead path -- one
    #: ``is not None`` test per instrumentation site, bit-identical
    #: output to a build without the telemetry subsystem.
    timeline: Optional[TimelineConfig] = None
    #: Causal span tracing through the request lifecycle
    #: (see :mod:`repro.obs.spans`).  Observation only.
    spans: bool = False
    #: Per-tenant SLO objectives evaluated over the timeline
    #: (see :mod:`repro.obs.slo`).  Arming a policy implies a default
    #: timeline when none is configured explicitly.
    slo: Optional[SloPolicy] = None
    #: Leased background-job subsystem (see :mod:`repro.jobs`):
    #: simulated workers claim maintenance jobs under epoch-fenced
    #: leases, with stale-lease recovery, an optional scrubber and
    #: per-tenant admission control.  ``None`` keeps the replay
    #: bit-identical to a build without the jobs subsystem.
    jobs: Optional[JobsConfig] = None

    def geometry(self) -> RaidGeometry:
        return RaidGeometry(
            level=self.raid_level,
            ndisks=self.ndisks,
            stripe_unit_blocks=self.stripe_unit_blocks,
        )

    def effective_timeline(self) -> Optional[TimelineConfig]:
        """The timeline config this replay samples with: the explicit
        one, a default when an SLO policy needs windows, else None."""
        if self.timeline is not None:
            return self.timeline
        if self.slo is not None:
            return TimelineConfig()
        return None


@dataclass
class ReplayResult:
    """Everything one replay produced."""

    trace_name: str
    scheme_name: str
    metrics: MetricsCollector
    scheme_stats: Dict[str, Any]
    utilisation: Dict[int, Dict[str, float]]
    capacity_blocks: int
    writes_total: int
    write_requests_removed: int
    #: Per-epoch iCache decision records (list of dicts; empty for
    #: schemes without an adaptive cache).
    epoch_timeline: List[Dict[str, Any]] = field(default_factory=list)
    #: The trace recorder used for this replay, when one was attached.
    recorder: Optional[TraceRecorder] = None
    #: The invariant sanitizer, when ``check_invariants`` was enabled
    #: (its ``summary()`` lands in run reports).
    sanitizer: Optional[PodSanitizer] = None
    #: Per-volume metric breakdowns (one dict per volume, id-ordered;
    #: empty for classic single-volume replays via ``replay_trace``).
    volumes: List[Dict[str, Any]] = field(default_factory=list)
    #: Fault-injection summary (counters, recovery-latency and
    #: blast-radius histograms, oracle verdict); ``None`` for healthy
    #: replays.
    fault_stats: Optional[Dict[str, Any]] = None
    #: Per-node metric breakdowns (one dict per node, id-ordered;
    #: empty outside :func:`repro.cluster.replay.replay_cluster`
    #: multi-node runs).
    nodes: List[Dict[str, Any]] = field(default_factory=list)
    #: Cluster-wide summary (router/ring state, network fabric totals,
    #: rebalance and node-failure progress); ``None`` outside cluster
    #: replays.
    cluster_stats: Optional[Dict[str, Any]] = None
    #: Windowed time-series sampler (``None`` unless the replay armed
    #: ``ReplayConfig.timeline``/``slo``); its ``as_dict()`` is the run
    #: report's ``timeline`` section.
    timeline: Optional[TimelineSampler] = None
    #: Causal span tracer (``None`` unless ``ReplayConfig.spans``).
    spans: Optional[SpanTracer] = None
    #: SLO evaluation output (``None`` unless ``ReplayConfig.slo``).
    slo_stats: Optional[Dict[str, Any]] = None
    #: Leased-job subsystem summary (lease/claim counters, per-job
    #: records, step-ledger verdict, admission totals); ``None``
    #: unless ``ReplayConfig.jobs`` armed the subsystem.
    jobs_stats: Optional[Dict[str, Any]] = None

    @property
    def removed_write_pct(self) -> float:
        """Fig. 11's metric: % of write requests eliminated."""
        if self.writes_total == 0:
            return 0.0
        return self.write_requests_removed / self.writes_total * 100.0

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"trace": self.trace_name, "scheme": self.scheme_name}
        out.update(self.metrics.as_dict())
        out["capacity_blocks"] = self.capacity_blocks
        out["removed_write_pct"] = self.removed_write_pct
        if self.volumes:
            out["volumes"] = self.volumes
        if self.nodes:
            out["nodes"] = self.nodes
        if self.cluster_stats is not None:
            out["cluster"] = self.cluster_stats
        return out


def size_disks(total_volume_blocks: int, config: ReplayConfig) -> DiskParams:
    """Pick per-disk capacity so the array exposes the needed volume.

    Every driver sizes its arrays (a cluster node's private one too)
    with this one rule -- a bit-identity requirement.
    """
    geometry = config.geometry()
    data_disks = geometry.data_disks
    su = geometry.stripe_unit_blocks
    units = math.ceil(total_volume_blocks / su)
    rows = math.ceil(units / data_disks)
    per_disk = (rows + 2) * su  # small slack row
    base = config.disk_params if config.disk_params is not None else DiskParams()
    if base.total_blocks >= per_disk:
        return base
    return DiskParams(
        total_blocks=per_disk,
        rpm=base.rpm,
        seek_min=base.seek_min,
        seek_max=base.seek_max,
        transfer_rate=base.transfer_rate,
        controller_overhead=base.controller_overhead,
    )


def replay_trace(
    trace: Union[Trace, ColumnarTrace],
    scheme: DedupScheme,
    config: ReplayConfig = ReplayConfig(),
    collector: Optional[MetricsCollector] = None,
    recorder: Optional[TraceRecorder] = None,
    batch_size: Optional[int] = None,
) -> ReplayResult:
    """Replay ``trace`` through ``scheme`` on the configured array.

    ``collector`` lets callers supply a richer collector (e.g.
    :class:`repro.metrics.analysis.DetailedCollector` for per-request
    samples); the default records summary statistics only.

    ``recorder`` attaches a :class:`~repro.obs.trace.TraceRecorder` to
    every layer (scheme, cache, engine).  Recording is observation
    only -- with any level, including ``OFF``, the simulated results
    are identical to an un-instrumented replay; the disabled path
    costs one integer compare per instrumentation site.

    ``batch_size`` opts into the columnar batch driver
    (:mod:`repro.sim.batch`): requests are planned in vectorized
    batches and completions replayed through a specialised loop --
    bit-identical to the event-loop path (pinned by golden tests) at a
    multiple of its throughput.  Configs outside the fast path fall
    back to the object path silently.

    This is the N=1 special case of :func:`replay_traces` (without
    the per-volume metric breakdowns); the two are bit-identical for
    a single volume.
    """
    return replay_traces(
        [trace],
        scheme,
        config,
        collector=collector,
        recorder=recorder,
        per_volume_metrics=False,
        batch_size=batch_size,
    )


def replay_traces(
    traces: Sequence[Union[Trace, ColumnarTrace]],
    scheme: DedupScheme,
    config: ReplayConfig = ReplayConfig(),
    collector: Optional[MetricsCollector] = None,
    recorder: Optional[TraceRecorder] = None,
    per_volume_metrics: bool = True,
    batch_size: Optional[int] = None,
) -> ReplayResult:
    """Replay N trace streams onto one shared-dedup-domain array.

    Each trace becomes one :class:`~repro.storage.namespace.VolumeNamespace`
    laid out back-to-back in the global logical space; the streams are
    merge-sorted by timestamp and injected open-loop, so tenants whose
    bursts collide genuinely queue against each other.  Because every
    volume shares one scheme (one Map table, one index, one allocator),
    identical content written by different volumes deduplicates to a
    single physical copy -- the paper's cross-VM scenario.

    With ``per_volume_metrics`` (default), the collector additionally
    tracks per-volume response times and eliminated writes, and each
    inline-deduplicated block is classified as *cross-volume* (its
    content was first written by another volume) or *intra-volume*.
    """
    if not traces:
        raise ConfigError("replay_traces needs at least one trace")
    if scheme.chunker is not None and config.faults is not None:
        # The fault oracle checks reads against the raw trace
        # fingerprints; CDC rewrites what the scheme stores, so the
        # two are incompatible by construction.
        raise ConfigError("content-defined chunking cannot run under fault injection")
    if batch_size is not None and batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if batch_size is not None and recorder is None:
        from repro.sim.batch import batch_eligible, replay_columnar

        if batch_eligible(config):
            return replay_columnar(
                traces,
                scheme,
                config,
                collector=collector,
                batch_size=batch_size,
                per_volume_metrics=per_volume_metrics,
            )
    from repro.sim.pipeline import Node, RequestPipeline, node_disks

    # Columnar inputs that did not take the batch driver (or were
    # passed with batch_size=None) materialise back to request-level
    # traces -- the round-trip is lossless, so the result is identical.
    traces = [
        t.to_trace() if isinstance(t, ColumnarTrace) else t for t in traces
    ]
    mapper = NamespaceMapper((t.name, t.logical_blocks) for t in traces)
    disks = node_disks(scheme, config, mapper.total_logical_blocks)
    schedulers = (
        [DiskScheduler(disk, config.scheduler) for disk in disks]
        if config.scheduler is not None
        else None
    )
    array = RaidArray(config.geometry())
    sim = Simulator(
        disks,
        array,
        schedulers=schedulers,
        failed_disk=config.failed_disk,
    )
    injector: Optional[FaultInjector] = None

    def scrub_read(pba: int, nblocks: int) -> float:
        # Jobs run on the analytic path only (see RequestPipeline.open_jobs).
        ops = array.map(VolumeOp(OpType.READ, pba, nblocks))
        if injector is not None:
            injector.in_scrub = True
        try:
            return sim.service_disk_ops(sim.now, ops)
        finally:
            if injector is not None:
                injector.in_scrub = False

    node = Node(scheme, sim.disks, sim.issue_volume_ops, scrub_read)
    pipe = RequestPipeline(
        sim, [node], [node] * len(traces), traces, config,
        collector, recorder, per_volume_metrics,
        fail_slow=config.faults.fail_slow if config.faults is not None else (),
    )

    if config.faults is not None:
        plan = config.faults
        if config.fault_seed is not None:
            plan = plan.with_seed(config.fault_seed)
        injector = FaultInjector(plan, registry=pipe.metrics.registry)
        injector.install(sim, scheme)
        if recorder is not None:
            injector.attach_observer(recorder)
        injector.timeline = pipe.sampler
        injector.spans = pipe.tracer
        # Volume-id -> namespace resolution for per-volume NVRAM-loss
        # recovery (NvramLossSpec.scope == "volume").
        injector.mapper = mapper
        node.oracle = injector.oracle
    elif config.fault_seed is not None:
        raise ConfigError("fault_seed given without a fault plan")

    pipe.schedule_arrivals([ns.base for ns in mapper])
    jobs = pipe.open_jobs(oracle=node.oracle)
    if jobs is not None:
        if injector is not None:
            # Member-failure rebuilds become leased jobs instead of
            # self-paced ticks.
            injector.jobs = jobs
        jobs.start()
    pipe.schedule_epochs()
    # Crash recovery stalls admission: globally, or only for the
    # volume whose namespace is replaying (per-volume NVRAM-loss
    # scope); a held request is charged admission at its release.
    pipe.run(stall=injector.blocked_until_for if injector is not None else None)

    if injector is not None:
        # Sweep still-latent faults into the blast-radius histogram and
        # run the end-to-end content oracle over the final state.
        injector.finalize(scheme)
    return pipe.result(
        fault_stats=injector.summary() if injector is not None else None
    )
