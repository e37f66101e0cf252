"""The per-request replay pipeline shared by the event-loop drivers.

POD's evaluation method (Section IV-A) is one loop: inject each
request open-loop at its trace timestamp, plan it, issue it, and
record completion minus arrival once the request is past its volume's
warm-up prefix.  :class:`RequestPipeline` is that loop.  The
single-node driver (:func:`repro.sim.replay.replay_traces`) runs it
over one :class:`Node` without a node id; the cluster driver
(:func:`repro.cluster.replay.replay_cluster`) runs it over N
:class:`~repro.cluster.node.ClusterNode` s and adds its overlay through
an extra per-write cost hook and an arrival stall hook.

Per request: arrival stalls and admission; the warm-up boundary
snapshot; plan, content oracle, extra cost, cross-volume split,
sanitizer and planning delay; then finish -- SSD, disk issue, spans,
metrics, the ``REQUEST_COMPLETE`` event and background ops.  The
pipeline also owns the stream merge, per-node iCache epoch ticks,
leased jobs with one scrubber per node, and result assembly, whose
helpers the columnar batch driver (:mod:`repro.sim.batch`) reuses.
Where the drivers' outputs differ, the difference is a per-node value,
not a second code path.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.sanitizer import PodSanitizer
from repro.baselines.base import DedupScheme, PlannedIO
from repro.errors import ConfigError
from repro.faults.oracle import ContentOracle
from repro.faults.plan import FailSlowSpec
from repro.jobs.jobs import ScrubJob
from repro.jobs.runtime import JobRuntime
from repro.metrics.collector import MetricsCollector
from repro.obs.events import EventType, TraceLevel
from repro.obs.slo import evaluate_slo
from repro.obs.spans import SpanTracer
from repro.obs.timeline import TimelineSampler
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.sim.engine import Simulator, disk_utilisation, queue_lag
from repro.sim.replay import ReplayConfig, ReplayResult, size_disks
from repro.sim.request import IORequest
from repro.storage.disk import Disk
from repro.storage.ssd import Ssd
from repro.storage.volume import VolumeOp
from repro.traces.format import Trace

#: ``issue(ops, on_complete)``: RAID-translate and service volume ops,
#: then call ``on_complete`` with the last completion time.
IssueFn = Callable[[Sequence[VolumeOp], Callable[[float], None]], None]

#: A write's extra cost before issue: ``(delay, remote_lookups,
#: remote_duplicate_blocks)``.
ExtraCost = Tuple[float, int, int]

_NO_EXTRA_COST: ExtraCost = (0.0, 0, 0)


def _ignore(_t: float) -> None:
    """Completion callback for ops nobody waits on."""


class Node:
    """One dedup domain as the pipeline drives it: a scheme, the disks
    behind it, and how to issue to them.

    ``node_id`` is ``None`` on the single-node path.
    """

    def __init__(
        self,
        scheme: DedupScheme,
        disks: Sequence[Disk],
        issue: IssueFn,
        scrub_read: Callable[[int, int], float],
        node_id: Optional[int] = None,
    ) -> None:
        self.node_id = node_id
        #: ``node`` value of this node's spans (-1 = no node).
        self.span_node = -1 if node_id is None else node_id
        self.scheme = scheme
        #: Member disks (queue-lag gauge and utilisation table).
        self.disks = disks
        self.issue = issue
        #: ``scrub_read(pba, nblocks) -> completion`` for the scrubber.
        self.scrub_read = scrub_read
        #: End-to-end content oracle, when the driver arms one.
        self.oracle: Optional[ContentOracle] = None
        self.ssd: Optional[Ssd] = None
        #: First writer of each fingerprint, for the cross-volume vs
        #: intra-volume split (multi-volume runs only; content only
        #: collapses within a node, so the question is per node).
        self.fp_owner: Optional[Dict[int, int]] = None
        self.requests_served = 0


# ----------------------------------------------------------------------
# setup and result helpers (shared with the columnar batch driver)
# ----------------------------------------------------------------------


def node_disks(
    scheme: DedupScheme,
    config: ReplayConfig,
    logical_blocks: int,
    node_id: Optional[int] = None,
) -> List[Disk]:
    """Check that ``logical_blocks`` fit the scheme and build its member
    disks, sized by :func:`~repro.sim.replay.size_disks`.  A cluster
    node's disks get cluster-unique ids ``node_id * ndisks + member``."""
    if logical_blocks > scheme.regions.logical_blocks:
        where = "trace touches" if node_id is None else f"node {node_id}: volumes touch"
        raise ConfigError(
            f"{where} {logical_blocks} logical blocks but the scheme was "
            f"configured for {scheme.regions.logical_blocks}"
        )
    params = size_disks(scheme.regions.total_blocks, config)
    first = 0 if node_id is None else node_id * config.ndisks
    return [Disk(params, disk_id=first + j) for j in range(config.ndisks)]


def merge_streams(
    traces: Sequence[Trace], bases: Sequence[int]
) -> Tuple[List[IORequest], List[bool]]:
    """Merge-sort N timestamped streams into one global request list.

    Volume ``vid``'s requests are rebased by ``bases[vid]`` (its slice
    of the shared domain, or of its owner node's local space) and
    tagged with the volume id; global ``req_id``s are assigned in
    merged order.  The merge is stable: equal timestamps keep volume
    order, so the merged stream is a pure function of its inputs.
    Returns the requests plus a parallel measured-flag list (a request
    is measured when it is past its *own* volume's warm-up prefix).
    """

    def stream(vid: int, trace: Trace) -> Iterator[Tuple[float, int, IORequest, bool]]:
        base = bases[vid]
        warmup = trace.warmup_count
        for i, rec in enumerate(trace.records):
            req = IORequest(
                time=rec.time,
                op=rec.op,
                lba=base + rec.lba,
                nblocks=rec.nblocks,
                fingerprints=rec.fingerprints,
                req_id=-1,
                volume_id=vid,
            )
            yield rec.time, vid, req, i >= warmup

    merged = heapq.merge(
        *(stream(vid, t) for vid, t in enumerate(traces)),
        key=lambda item: item[0],
    )
    requests: List[IORequest] = []
    measured: List[bool] = []
    for req_id, (_t, _vid, req, is_measured) in enumerate(merged):
        req.req_id = req_id
        requests.append(req)
        measured.append(is_measured)
    return requests, measured


def run_name(traces: Sequence[Any]) -> str:
    """A run's name: its trace's, or the volume names joined by ``+``."""
    return traces[0].name if len(traces) == 1 else "+".join(t.name for t in traces)


def aggregate_stats(stats_list: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum numeric scheme stats across nodes (non-numerics from node 0)."""
    out: Dict[str, Any] = dict(stats_list[0])
    for stats in stats_list[1:]:
        for key, value in stats.items():
            if isinstance(value, bool):
                continue
            prev = out.get(key)
            if isinstance(value, (int, float)) and isinstance(prev, (int, float)):
                out[key] = prev + value
    return out


def replay_result(
    traces: Sequence[Any],
    schemes: Sequence[DedupScheme],
    disks: Sequence[Disk],
    metrics: MetricsCollector,
    boundary: Dict[str, Any],
    per_volume_metrics: bool,
    **extra: Any,
) -> ReplayResult:
    """Assemble a :class:`ReplayResult` from a finished replay.

    ``traces`` are the volumes in id order (request-level or columnar);
    ``boundary`` holds the scheme counters snapshotted at the warm-up
    boundary.  One scheme reports its own stats and iCache epoch
    timeline; several report summed stats and no timeline.
    """
    if len(schemes) == 1:
        scheme_stats = schemes[0].stats()
        timeline = getattr(schemes[0].cache, "epoch_timeline", [])
    else:
        scheme_stats = aggregate_stats([s.stats() for s in schemes])
        timeline = []
    volumes: List[Dict[str, Any]] = []
    if per_volume_metrics:
        tracked = set(metrics.volume_ids())
        for vid, trace in enumerate(traces):
            entry: Dict[str, Any] = {
                "volume_id": vid,
                "name": trace.name,
                "logical_blocks": trace.logical_blocks,
            }
            if vid in tracked:
                entry.update(metrics.volume_as_dict(vid))
            else:  # volume with no measured traffic
                entry["requests"] = 0
            volumes.append(entry)
    return ReplayResult(
        trace_name=run_name(traces),
        scheme_name=schemes[0].name,
        metrics=metrics,
        scheme_stats=scheme_stats,
        utilisation=disk_utilisation(disks),
        capacity_blocks=sum(s.capacity_blocks() for s in schemes),
        writes_total=sum(s.writes_total for s in schemes) - boundary["writes"],
        write_requests_removed=(
            sum(s.write_requests_removed for s in schemes) - boundary["removed"]
        ),
        epoch_timeline=[
            e.as_dict() if hasattr(e, "as_dict") else dict(e) for e in timeline
        ],
        volumes=volumes,
        **extra,
    )


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------


class RequestPipeline:
    """One replay's request path over ``nodes`` on one event loop.

    Construction wires metrics and telemetry to every node's scheme
    (``fail_slow`` windows become timeline bands);
    the driver then calls, in this order (each step's event-queue
    insertions fix tie-breaking, so the order is part of the result):
    :meth:`schedule_arrivals`, :meth:`open_jobs` (and starts the
    runtime after adding its own jobs), :meth:`schedule_epochs`,
    :meth:`run` and :meth:`result`.
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[Node],
        node_of: Sequence[Node],
        traces: Sequence[Trace],
        config: ReplayConfig,
        collector: Optional[MetricsCollector],
        recorder: Optional[TraceRecorder],
        per_volume_metrics: bool,
        fail_slow: Sequence[FailSlowSpec] = (),
    ) -> None:
        self.sim = sim
        self.nodes = list(nodes)
        #: Volume id -> the node serving it.
        self.node_of = list(node_of)
        self.traces = traces
        self.config = config
        self.recorder = recorder
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self.per_volume_metrics = per_volume_metrics
        metrics = collector if collector is not None else MetricsCollector()
        self.metrics = metrics
        if per_volume_metrics:
            metrics.track_volumes()
        # Telemetry (all observation only; None = zero-overhead off path).
        tl_config = config.effective_timeline()
        self.sampler: Optional[TimelineSampler] = (
            TimelineSampler(tl_config, policy=config.slo)
            if tl_config is not None
            else None
        )
        if self.sampler is not None:
            metrics.attach_timeline(self.sampler)
            # Known-in-advance fault intervals become window bands up
            # front; tick-driven activity is noted live.
            for fs in fail_slow:
                self.sampler.annotate_interval("fail_slow", fs.start, fs.end)
        self.tracer: Optional[SpanTracer] = SpanTracer() if config.spans else None
        for node in self.nodes:
            if config.ssd_params is not None:
                node.ssd = Ssd(config.ssd_params)
            if len(traces) > 1:
                node.fp_owner = {}
            if self.tracer is not None:
                node.scheme.spans = self.tracer
            if recorder is not None:
                node.scheme.attach_observer(recorder)
        if recorder is not None:
            sim.attach_observer(recorder)
        self.sanitizer: Optional[PodSanitizer] = None
        if config.check_invariants:
            if config.sanitize_every <= 0:
                raise ConfigError("sanitize_every must be positive")
            self.sanitizer = PodSanitizer(registry=metrics.registry)
            for node in self.nodes:
                self.sanitizer.attach(node.scheme)

        self.jobs: Optional[JobRuntime] = None
        self.requests: List[IORequest] = []
        self.measured: List[bool] = []
        #: Scheme counters at the warm-up boundary (the first arrival
        #: past its volume's warm-up prefix).
        self.boundary: Dict[str, Any] = {"writes": 0, "removed": 0}

    @property
    def horizon(self) -> float:
        """The last arrival time (0 for an empty run)."""
        return self.requests[-1].time if self.requests else 0.0

    def schedule_arrivals(self, bases: Sequence[int]) -> None:
        """Merge the streams (see :func:`merge_streams`) and schedule
        every arrival open-loop at its trace timestamp."""
        self.requests, self.measured = merge_streams(self.traces, bases)
        for request in self.requests:
            self.sim.schedule_arrival(request.time, request)

    def open_jobs(self, oracle: Optional[ContentOracle] = None) -> Optional[JobRuntime]:
        """Create the leased-job runtime with one scrubber per node
        (see :mod:`repro.jobs`), or ``None`` when jobs are off.  The
        caller submits its own jobs, then starts the runtime."""
        config = self.config
        if config.jobs is None:
            return None
        if config.scheduler is not None:
            raise ConfigError(
                "leased jobs issue maintenance I/O through the analytic "
                "service path (event-driven schedulers are not supported)"
            )
        jobs = JobRuntime(
            config.jobs,
            self.sim,
            horizon=self.horizon,
            oracle=oracle,
            registry=self.metrics.registry,
        )
        jobs.timeline = self.sampler
        jobs.spans = self.tracer
        scrub = config.jobs.scrub
        if scrub is not None:
            for node in self.nodes:
                jobs.submit(
                    "scrub" if node.node_id is None else f"scrub.n{node.node_id}",
                    ScrubJob(
                        node.scheme.regions.total_blocks,
                        scrub.region_blocks,
                        node.scrub_read,
                        regions_cap=scrub.regions if scrub.regions is not None else 0,
                    ),
                    scrub.interval,
                    not_before=scrub.start,
                )
        self.jobs = jobs
        return jobs

    def schedule_epochs(self) -> None:
        """Arm each node's periodic cache-management epochs (POD's
        iCache) from the first arrival until one interval past the
        last."""
        if not self.requests:
            return
        sim = self.sim
        sampler = self.sampler
        sanitizer = self.sanitizer
        last_arrival = self.horizon
        ticks: List[Callable[[], None]] = []
        for node in self.nodes:
            interval = node.scheme.epoch_interval
            if interval is None:
                continue
            if interval <= 0:
                raise ConfigError("epoch interval must be positive")

            def epoch_tick(node: Node = node, interval: float = interval) -> None:
                scheme = node.scheme
                ops = scheme.on_epoch(sim.now)
                if sampler is not None:
                    # iCache partition sizes are only interesting at
                    # epoch boundaries -- that is when they move.
                    sampler.note_gauges(
                        sim.now,
                        node_id=node.node_id,
                        icache_index_bytes=float(scheme.cache.index.capacity_bytes),
                        icache_read_bytes=float(scheme.cache.read.capacity_bytes),
                    )
                if sanitizer is not None:
                    # Epoch boundaries are where iCache repartitions;
                    # check the partition budgets right after the move.
                    sanitizer.assert_clean(scheme, sim.now)
                if ops:
                    node.issue(ops, _ignore)
                next_time = sim.now + interval
                if next_time <= last_arrival + interval:
                    # Known defect, kept for byte-identical goldens: every
                    # tick re-arms the *last* node's tick, so on a
                    # multi-node cluster only the first tick of nodes
                    # other than the last runs (see ROADMAP.md).
                    sim.schedule_callback(next_time, ticks[-1])

            ticks.append(epoch_tick)
            sim.schedule_callback(self.requests[0].time + interval, epoch_tick)

    def run(
        self,
        extra_cost: Optional[Callable[[Node, IORequest, float, int], ExtraCost]] = None,
        stall: Optional[Callable[[int], float]] = None,
        stall_skips_admission: bool = False,
    ) -> None:
        """Drain the event loop, then run the end-of-run checks.

        ``extra_cost(node, request, now, root_span)`` charges each write
        with fingerprints before it issues.  ``stall(volume_id)`` names
        the time until which an arrival is held; the held request keeps
        its arrival timestamp, so the stall is charged to its response
        time.  With ``stall_skips_admission`` a held request bypasses
        admission (the cluster's stop-the-world window); otherwise it
        is charged admission at its release time (crash recovery).
        """
        # Hot-path state lives in closure cells, not ``self`` lookups.
        sim = self.sim
        obs = self.obs
        sampler = self.sampler
        tracer = self.tracer
        sanitizer = self.sanitizer
        node_of = self.node_of
        measured_flags = self.measured
        boundary = self.boundary
        schemes = [node.scheme for node in self.nodes]
        admission = self.jobs.admission if self.jobs is not None else None
        collect_warmup = self.config.collect_warmup
        sanitize_every = self.config.sanitize_every
        record = self.metrics.record
        record_node = (
            self.metrics.record_node
            if self.metrics.tracks_nodes and self.nodes[0].node_id is not None
            else None
        )
        multi = len(self.traces) > 1
        total_warmup = sum(t.warmup_count for t in self.traces)
        boundary["taken"] = total_warmup == 0
        arrivals = {"count": 0}

        if obs.level >= TraceLevel.SUMMARY:
            extra_run: Dict[str, Any] = {"volumes": len(self.traces)} if multi else {}
            if len(self.nodes) > 1:
                extra_run["nodes"] = len(self.nodes)
            obs.emit(
                TraceLevel.SUMMARY,
                self.requests[0].time if self.requests else 0.0,
                EventType.RUN_START,
                trace=run_name(self.traces),
                scheme=schemes[0].name,
                requests=len(self.requests),
                warmup=total_warmup,
                **extra_run,
            )

        def finish(
            request: IORequest,
            planned: PlannedIO,
            arrival: float,
            cross: int,
            cost: ExtraCost,
            root: int,
        ) -> None:
            node = node_of[request.volume_id]
            issue_time = sim.now

            ssd_done = issue_time
            if planned.ssd_read_blocks or planned.ssd_write_blocks:
                ssd = node.ssd
                if ssd is None:
                    raise ConfigError(
                        f"scheme {node.scheme.name} emitted SSD traffic but the "
                        "replay has no ssd_params configured"
                    )
                if planned.ssd_read_blocks:
                    ssd_done = ssd.service(issue_time, planned.ssd_read_blocks)
                if planned.ssd_write_blocks:
                    ssd.service(issue_time, planned.ssd_write_blocks)  # background

            def complete(completion: float) -> None:
                completion = max(completion, ssd_done)
                measured = collect_warmup or measured_flags[request.req_id]
                completed_at = max(completion, issue_time)
                if tracer is not None and root > 0:
                    if planned.volume_ops:
                        # Cluster disk spans also carry the blocks moved.
                        blocks = {} if node.node_id is None else {
                            "blocks": sum(op.nblocks for op in planned.volume_ops)
                        }
                        tracer.emit(
                            issue_time, completed_at, "disk", parent=root,
                            req_id=request.req_id, node=node.span_node, **blocks,
                        )
                    tracer.end(completed_at, root, response=completed_at - arrival)
                if measured:
                    record(
                        request,
                        arrival,
                        completed_at,
                        eliminated=planned.eliminated,
                        cache_hit_blocks=planned.cache_hit_blocks,
                        deduped_blocks=planned.deduped_blocks,
                        cross_volume_blocks=cross,
                    )
                    if record_node is not None:
                        record_node(
                            request,
                            node.node_id,
                            arrival,
                            completed_at,
                            eliminated=planned.eliminated,
                            cache_hit_blocks=planned.cache_hit_blocks,
                            deduped_blocks=planned.deduped_blocks,
                            net_delay=cost[0],
                            remote_lookups=cost[1],
                            remote_duplicate_blocks=cost[2],
                        )
                if obs.level >= TraceLevel.REQUEST:
                    extra = {"volume": request.volume_id} if multi else {}
                    obs.emit(
                        TraceLevel.REQUEST,
                        completed_at,
                        EventType.REQUEST_COMPLETE,
                        req_id=request.req_id,
                        op=request.op.value,
                        nblocks=request.nblocks,
                        response=completed_at - arrival,
                        eliminated=planned.eliminated,
                        deduped_blocks=planned.deduped_blocks,
                        cache_hit_blocks=planned.cache_hit_blocks,
                        measured=measured,
                        **extra,
                    )

            node.issue(planned.volume_ops, complete)
            if planned.background_ops:
                node.issue(planned.background_ops, _ignore)

        def handle_request(request: IORequest, arrival: float) -> None:
            now = sim.now
            node = node_of[request.volume_id]
            scheme = node.scheme
            if not boundary["taken"] and measured_flags[request.req_id]:
                boundary["writes"] = sum(s.writes_total for s in schemes)
                boundary["removed"] = sum(s.write_requests_removed for s in schemes)
                boundary["taken"] = True
            root = -1
            if tracer is not None:
                # Root span: arrival to completion (ended in complete()).
                root = tracer.start(
                    arrival, "request", req_id=request.req_id, node=node.span_node
                )
                if now > arrival:
                    # Held by a stall or by admission throttling.
                    tracer.emit(
                        arrival, now, "admission.stall",
                        parent=root, req_id=request.req_id, node=node.span_node,
                    )
                scheme.span_parent = root
            if sampler is not None:
                sampler.note_gauges(
                    now,
                    node_id=node.node_id,
                    nvram_bytes=float(scheme.nvram.bytes_used),
                    queue_lag=queue_lag(node.disks, now),
                )
            if obs.level >= TraceLevel.REQUEST:
                extra = {"volume": request.volume_id} if multi else {}
                obs.emit(
                    TraceLevel.REQUEST,
                    now,
                    EventType.REQUEST_ARRIVE,
                    req_id=request.req_id,
                    op=request.op.value,
                    lba=request.lba,
                    nblocks=request.nblocks,
                    **extra,
                )
            node.requests_served += 1
            planned = scheme.process(request, now)
            oracle = node.oracle
            if oracle is not None:
                # Content-oracle shadow: writes establish the truth,
                # reads are checked against it at processing time.
                if request.is_write:
                    oracle.note_write(request)
                else:
                    oracle.check_read(request, scheme)
            cost = _NO_EXTRA_COST
            if (
                extra_cost is not None
                and request.is_write
                and request.fingerprints is not None
            ):
                cost = extra_cost(node, request, now, root)
            cross = 0
            owners = node.fp_owner
            if owners is not None and request.fingerprints is not None:
                vid = request.volume_id
                for i in planned.deduped_idx:
                    owner = owners.get(request.fingerprints[i])
                    if owner is not None and owner != vid:
                        cross += 1
                for fp in request.fingerprints:
                    owners.setdefault(fp, vid)
            if sanitizer is not None:
                arrivals["count"] += 1
                if arrivals["count"] % sanitize_every == 0:
                    sanitizer.assert_clean(scheme, now)
            delay = planned.delay + cost[0]
            if delay > 0:
                if tracer is not None and root > 0 and planned.delay > 0:
                    # Fingerprint classification: the planning delay
                    # between arrival handling and op issue (a network
                    # wait has its own rpc spans).
                    tracer.emit(
                        now, now + planned.delay, "classify",
                        parent=root, req_id=request.req_id, node=node.span_node,
                    )
                sim.schedule_callback(
                    now + delay, finish, request, planned, arrival, cross, cost, root
                )
            else:
                finish(request, planned, arrival, cross, cost, root)

        def on_arrival(now: float, request: IORequest) -> None:
            release = now
            if stall is not None:
                blocked = stall(request.volume_id)
                if blocked > release:
                    if stall_skips_admission:
                        sim.schedule_callback(blocked, handle_request, request, now)
                        return
                    release = blocked
            if admission is not None:
                # Per-tenant token bucket; charged even when not
                # throttling so the bucket drains deterministically.
                admitted = admission.admit(request.volume_id, release, request.nblocks)
                if admitted > release:
                    release = admitted
            if release > now:
                sim.schedule_callback(release, handle_request, request, now)
                return
            handle_request(request, now)

        sim.run(arrival_handler=on_arrival)

        if sanitizer is not None:
            for scheme in schemes:
                sanitizer.assert_clean(scheme, sim.now)
        if self.jobs is not None:
            # Mirror job counters into the registry and verify the step
            # ledger (no step lost, none double-applied).
            self.jobs.finalize()

    def result(self, **extra: Any) -> ReplayResult:
        """Close the run (``RUN_END``, timeline windows, SLO verdict)
        and assemble its :class:`ReplayResult`; ``extra`` carries the
        driver's own sections."""
        sim = self.sim
        obs = self.obs
        if obs.level >= TraceLevel.SUMMARY:
            obs.emit(
                TraceLevel.SUMMARY,
                sim.now,
                EventType.RUN_END,
                events_processed=sim.events_processed,
                makespan=self.metrics.as_dict()["makespan"],
            )
        slo_stats: Optional[Dict[str, Any]] = None
        if self.sampler is not None:
            self.sampler.finish(sim.now)
            if self.config.slo is not None:
                slo_stats = evaluate_slo(self.config.slo, self.sampler.as_dict())
        return replay_result(
            self.traces,
            [node.scheme for node in self.nodes],
            [disk for node in self.nodes for disk in node.disks],
            self.metrics,
            self.boundary,
            self.per_volume_metrics,
            recorder=self.recorder,
            sanitizer=self.sanitizer,
            timeline=self.sampler,
            spans=self.tracer,
            slo_stats=slo_stats,
            jobs_stats=self.jobs.summary() if self.jobs is not None else None,
            **extra,
        )
