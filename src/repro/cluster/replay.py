"""The cluster replay driver: N POD nodes, one event loop.

The driver runs the request pipeline (:mod:`repro.sim.pipeline`) over
N complete POD nodes (:class:`~repro.cluster.node.ClusterNode`:
private RAID array, Index table, Map table, iCache budget) against a
single shared clock, and adds a cluster overlay through the
pipeline's hooks and its own scheduled events:

* every write's blocks stay on the request-owner node (Select-Dedupe's
  sequentiality rule is a per-node property -- remote *data* placement
  would shred exactly the sequential runs Figure 5 protects);
* every write's fingerprints are looked up in the sharded cluster
  directory: a consistent-hash :class:`~repro.cluster.router.FingerprintRouter`
  names each fingerprint's shard-owner node, remote lookups pay the
  :class:`~repro.cluster.netmodel.NetworkModel` (latency + bandwidth +
  per-link queueing) and their cost lands on the request's response
  time; duplicates first written by *another* node are detected and
  counted (``remote_duplicate_blocks``) but deliberately not
  deduplicated across nodes -- each node remains a standard POD
  instance, so the PodSanitizer and the content oracle hold per node;
* membership changes (node add/remove) re-route fingerprint arcs
  immediately and migrate the displaced directory entries as paced
  background RPC load (:class:`~repro.cluster.rebalance.ShardMigrator`);
  lookups that race the migration miss -- POD's miss-as-unique
  semantics, counted as ``rebalance_misses``;
* a :class:`~repro.faults.plan.NodeFailureSpec` degrades one node's
  array mid-replay and rebuilds it in place, generalising the fault
  layer's member failure to the cluster;
* the replicated directory can lose a metadata node, and its
  stop-the-world GC baseline holds arrivals while it sweeps.

The one-node, feature-free case runs the same pipeline as
:func:`~repro.sim.replay.replay_traces` and is pinned bit-identical to
it by golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines.base import DedupScheme
from repro.cluster.directory.gc import MODE_ONLINE, GcJob, RefcountGc
from repro.cluster.directory.quorum import DirectoryConfig, ReplicatedDirectory
from repro.cluster.netmodel import NetworkFabric, NetworkModel
from repro.cluster.node import ClusterNode
from repro.cluster.rebalance import RebalanceSpec, ShardMigrator
from repro.cluster.router import FingerprintRouter
from repro.errors import ClusterError, ConfigError
from repro.faults.oracle import ContentOracle
from repro.faults.plan import FailSlowSpec, NodeFailureSpec
from repro.jobs.jobs import MigrationJob, pace_rebuild
from repro.metrics.collector import MetricsCollector
from repro.obs.events import EventType, TraceLevel
from repro.obs.trace import TraceRecorder
from repro.sim.engine import Simulator
from repro.sim.pipeline import Node, RequestPipeline, node_disks
from repro.sim.replay import ReplayConfig, ReplayResult
from repro.sim.request import IORequest
from repro.storage.namespace import NamespaceMapper
from repro.storage.raid import RaidArray
from repro.storage.rebuild import RebuildController
from repro.traces.format import Trace


#: Directed link ``(src, dst)`` -> lookups or entries it carries.
Links = Dict[Tuple[int, int], int]


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster-layer options (frozen and hashable, like ReplayConfig).

    Attributes
    ----------
    vnodes:
        Virtual nodes per ring member (router fairness knob).
    net:
        The inter-node network cost model.
    rebalance:
        An optional scheduled membership change with paced shard
        migration.
    node_failure:
        An optional whole-node fault (one member disk of that node's
        array fails and is rebuilt in place).
    fail_slow:
        Fail-slow windows on individual cluster disks, addressed by
        *global* disk id (``node * ndisks + member``).  A window
        overlapping a leased rebuild is the stale-lease recovery
        scenario: the stalled worker's lease expires mid-step and the
        job is re-claimed at the next epoch.
    verify_content:
        Run one end-to-end :class:`~repro.faults.oracle.ContentOracle`
        per node (observation only; raises on any wrong read).
    directory:
        The replicated fingerprint directory
        (:class:`~repro.cluster.directory.quorum.DirectoryConfig`):
        R-way replica placement, tunable consistency, read repair,
        metadata-node kills and online refcount GC.  ``None`` keeps
        the legacy single-copy sharded directory bit-identical.
    """

    vnodes: int = 64
    net: NetworkModel = NetworkModel()
    rebalance: Optional[RebalanceSpec] = None
    node_failure: Optional[NodeFailureSpec] = None
    fail_slow: Tuple[FailSlowSpec, ...] = ()
    verify_content: bool = False
    directory: Optional[DirectoryConfig] = None

    def __post_init__(self) -> None:
        if self.vnodes <= 0:
            raise ClusterError(f"vnodes must be positive, got {self.vnodes}")


def replay_cluster(
    traces: Sequence[Trace],
    schemes: Sequence[DedupScheme],
    cluster: ClusterConfig = ClusterConfig(),
    config: ReplayConfig = ReplayConfig(),
    *,
    assignment: Optional[Sequence[int]] = None,
    collector: Optional[MetricsCollector] = None,
    recorder: Optional[TraceRecorder] = None,
    per_volume_metrics: bool = True,
) -> ReplayResult:
    """Replay N trace streams across a sharded multi-node dedup domain.

    ``schemes[n]`` becomes node *n*'s POD instance; each node gets a
    private array built from ``config`` (same geometry and disk-sizing
    rule as the single-node replay).  ``assignment[vid]`` names the
    node serving volume ``vid`` (default: ``vid % len(schemes)``).

    With one node and no cluster features, the run is bit-identical to
    ``replay_traces(traces, schemes[0], config)``.
    """
    if not traces:
        raise ConfigError("replay_cluster needs at least one trace")
    if not schemes:
        raise ConfigError("replay_cluster needs at least one scheme (node)")
    if config.scheduler is not None:
        raise ConfigError(
            "cluster replays run on the analytic FCFS path only "
            "(ReplayConfig.scheduler must be None)"
        )
    if config.faults is not None or config.fault_seed is not None:
        raise ConfigError(
            "cluster replays take node faults via ClusterConfig.node_failure, "
            "not ReplayConfig.faults"
        )
    if config.failed_disk is not None:
        raise ConfigError(
            "cluster replays take degraded arrays via ClusterConfig.node_failure, "
            "not ReplayConfig.failed_disk"
        )

    nnodes = len(schemes)
    if assignment is None:
        assignment = [vid % nnodes for vid in range(len(traces))]
    if len(assignment) != len(traces):
        raise ClusterError(
            f"assignment names {len(assignment)} volumes for {len(traces)} traces"
        )
    for vid, node_id in enumerate(assignment):
        if not (0 <= node_id < nnodes):
            raise ClusterError(f"volume {vid} assigned to unknown node {node_id}")
    served: Set[int] = set(assignment)
    if served != set(range(nnodes)):
        missing = sorted(set(range(nnodes)) - served)
        raise ClusterError(f"node(s) {missing} serve no volume")

    rebalance = cluster.rebalance
    node_failure = cluster.node_failure
    if node_failure is not None:
        if node_failure.node >= nnodes:
            raise ClusterError(
                f"node-failure spec names unknown node {node_failure.node}"
            )
        if node_failure.disk >= config.ndisks:
            raise ClusterError(
                f"node-failure spec names unknown member disk {node_failure.disk}"
            )
    if rebalance is not None:
        if rebalance.remove_node is not None and (
            rebalance.remove_node >= nnodes + rebalance.add_nodes
        ):
            raise ClusterError(
                f"rebalance removes unknown member {rebalance.remove_node}"
            )
    directory_cfg = cluster.directory
    if directory_cfg is not None:
        if rebalance is not None:
            raise ConfigError(
                "the replicated directory and shard rebalancing cannot be "
                "combined yet (replica sets would race the migration)"
            )
        if directory_cfg.kill is not None and directory_cfg.kill.node >= nnodes:
            raise ClusterError(
                f"kill-metadata-node names unknown node {directory_cfg.kill.node}"
            )
        if (
            directory_cfg.gc is not None
            and directory_cfg.gc.mode == MODE_ONLINE
            and config.jobs is None
        ):
            raise ConfigError(
                "online refcount GC runs as a leased job and needs "
                "ReplayConfig.jobs (pass --jobs, or --gc implies it on the CLI)"
            )

    # -- feature gates (each one must leave the plain N=1 path alone) --
    net_active = nnodes > 1 or (rebalance is not None and rebalance.add_nodes > 0)
    dir_active = directory_cfg is not None
    cluster_active = (
        net_active or node_failure is not None or rebalance is not None or dir_active
    )

    # ------------------------------------------------------------------
    # build the nodes
    # ------------------------------------------------------------------
    geometry = config.geometry()
    sim = Simulator([], None)
    nodes: List[ClusterNode] = []
    bases: List[int] = [0] * len(traces)
    for n in range(nnodes):
        scheme = schemes[n]
        vids = [vid for vid in range(len(traces)) if assignment[vid] == n]
        mapper = NamespaceMapper(
            (traces[vid].name, traces[vid].logical_blocks) for vid in vids
        )
        disks = node_disks(scheme, config, mapper.total_logical_blocks, node_id=n)
        node = ClusterNode(n, scheme, disks, RaidArray(geometry), mapper, sim)
        node.volume_ids = vids
        for local_vid, vid in enumerate(vids):
            bases[vid] = mapper.volume(local_vid).base
        if cluster.verify_content:
            node.oracle = ContentOracle()
        nodes.append(node)

    for fs in cluster.fail_slow:
        fs_node, fs_member = divmod(fs.disk, geometry.ndisks)
        if not (0 <= fs_node < nnodes):
            raise ClusterError(
                f"fail-slow spec names unknown cluster disk {fs.disk} "
                f"(have {nnodes * geometry.ndisks})"
            )
        nodes[fs_node].disks[fs_member].add_slow_window(
            fs.start, fs.end, fs.multiplier
        )

    pipe = RequestPipeline(
        sim,
        nodes,
        [nodes[assignment[vid]] for vid in range(len(traces))],
        traces,
        config,
        collector,
        recorder,
        per_volume_metrics,
        fail_slow=cluster.fail_slow,
    )
    if cluster_active:
        pipe.metrics.track_nodes()
    obs = pipe.obs
    sampler = pipe.sampler
    tracer = pipe.tracer

    # -- cluster overlay state -----------------------------------------
    router = FingerprintRouter(range(nnodes), vnodes=cluster.vnodes)
    fabric = NetworkFabric(cluster.net)
    net = cluster.net
    #: Shard-owner member id -> (fingerprint -> first-writer node id).
    shards: Dict[int, Dict[int, int]] = {n: {} for n in range(nnodes)}
    migration: Dict[str, Optional[ShardMigrator]] = {"migrator": None}

    # -- replicated directory (None = legacy single-copy shards) -------
    directory: Optional[ReplicatedDirectory] = None
    refcount_gc: Optional[RefcountGc] = None
    #: Per-node logical shadow (node-local lba -> fingerprint held) so
    #: overwrites queue refcount-decrement intents for the old content.
    block_content: Optional[List[Dict[int, int]]] = None
    if directory_cfg is not None:
        directory = ReplicatedDirectory(router, nnodes, directory_cfg)
        block_content = [{} for _ in range(nnodes)]
        if directory_cfg.gc is not None:
            refcount_gc = RefcountGc(directory)

    def send(
        now: float,
        links: Links,
        unit_bytes: int,
        span: str = "",
        root: int = -1,
        req_id: int = -1,
        count_attr: str = "",
    ) -> float:
        """Charge one batched RPC per directed link, in link order;
        return the last completion (``now`` when there is none).  With
        a ``span`` name each RPC becomes a child of request ``root``."""
        last = now
        for src, dst in sorted(links):
            count = links[(src, dst)]
            nbytes = count * unit_bytes
            done = fabric.round_trip(now, src, dst, nbytes)
            if sampler is not None:
                sampler.note_rpc(now, src, dst, nbytes, fabric.last_service)
            if span and tracer is not None and root > 0:
                tracer.emit(
                    now, done, span, parent=root, req_id=req_id,
                    node=src, dst=dst, **{count_attr: count},
                )
            if obs.level >= TraceLevel.CHUNK:
                obs.emit(
                    TraceLevel.CHUNK,
                    now,
                    EventType.NET_RPC,
                    src=src,
                    dst=dst,
                    bytes=nbytes,
                    queued=fabric.last_queue_wait,
                    done=done,
                )
            if done > last:
                last = done
        return last

    def send_entries(links: Links) -> float:
        # Directory-entry pushes (migration, GC decrements): sunk cost
        # on a fenced step -- the bytes are on the wire at plan time.
        return send(sim.now, links, net.entry_bytes)

    pipe.schedule_arrivals(bases)

    # Leased background jobs (see repro.jobs): the cluster's
    # maintenance work -- node-failure rebuild, shard migration, one
    # scrubber per node, online GC -- runs under epoch-fenced worker
    # leases when armed; None keeps the self-paced tick path.
    jobs_runtime = pipe.open_jobs()
    if jobs_runtime is not None:
        gc_spec = directory_cfg.gc if directory_cfg is not None else None
        if (
            refcount_gc is not None
            and gc_spec is not None
            and gc_spec.mode == MODE_ONLINE
        ):
            # Online refcount GC as a leased job: the ledger needs a
            # fixed total, so the job runs a fixed number of rounds
            # sized to the trace horizon, each draining up to ``batch``
            # decrement intents from the fenced cursor.
            gc_rounds = (
                gc_spec.rounds
                if gc_spec.rounds is not None
                else max(
                    1,
                    int(max(0.0, pipe.horizon - gc_spec.start) / gc_spec.interval)
                    + 1,
                )
            )
            jobs_runtime.submit(
                "gc",
                GcJob(
                    refcount_gc,
                    gc_spec.batch,
                    gc_rounds,
                    gc_spec.entry_cost,
                    send_entries,
                ),
                gc_spec.interval,
                not_before=gc_spec.start,
            )
        jobs_runtime.start()

    pipe.schedule_epochs()

    # ------------------------------------------------------------------
    # the write path's directory lookups
    # ------------------------------------------------------------------

    def shard_lookups(
        node: ClusterNode, request: IORequest
    ) -> Tuple[Links, Links, int]:
        """Consult the sharded directory: lookups per link to a remote
        shard owner, no repairs, and the remote-duplicate block count.
        Registers first writers."""
        assert request.fingerprints is not None
        migrator = migration["migrator"]
        pending = migrator.pending if migrator is not None else None
        lookups: Links = {}
        remote_dups = 0
        for fp in request.fingerprints:
            shard = router.route(fp)
            if shard != node.node_id:
                link = (node.node_id, shard)
                lookups[link] = lookups.get(link, 0) + 1
            table = shards.setdefault(shard, {})
            writer = table.get(fp)
            if writer is None:
                if pending is not None and fp in pending:
                    # Entry still in flight to this (new) owner:
                    # miss-as-unique, charged to the rebalance.
                    node.rebalance_misses += 1
                table[fp] = node.node_id
                if migrator is not None:
                    migrator.note_registered(fp)
            elif writer != node.node_id:
                remote_dups += 1
        return lookups, {}, remote_dups

    def directory_lookups(
        node: ClusterNode, request: IORequest
    ) -> Tuple[Links, Links, int]:
        """Consult the *replicated* directory: each fingerprint contacts
        its first ``required`` live replicas, overwrites queue refcount
        decrement intents, and divergent replicas get read-repair
        pushes.  At R=1 the contacted set is exactly the legacy shard
        owner, so counts and wire arithmetic reduce to the legacy path
        block for block.  Returns ``(lookup_links, repair_links,
        remote_duplicate_blocks)``."""
        assert request.fingerprints is not None
        assert directory is not None and block_content is not None
        shadow = block_content[node.node_id]
        lookups: Links = {}
        repair_links: Links = {}
        remote_dups = 0
        for i, fp in enumerate(request.fingerprints):
            lba = request.lba + i
            old = shadow.get(lba)
            new_holder = old != fp
            if old is not None and old != fp:
                directory.note_overwrite(old)
            shadow[lba] = fp
            res = directory.lookup_register(fp, node.node_id, new_holder)
            for m in res.contacted:
                if m != node.node_id:
                    link = (node.node_id, m)
                    lookups[link] = lookups.get(link, 0) + 1
            for dst in res.repairs:
                # The origin coordinates the repair push (Cassandra
                # style): one directory entry per stale replica.
                key = (node.node_id, dst)
                repair_links[key] = repair_links.get(key, 0) + 1
            if res.remote_dup:
                remote_dups += 1
        return lookups, repair_links, remote_dups

    def lookup_cost(
        node: Node, request: IORequest, now: float, root: int
    ) -> Tuple[float, int, int]:
        """Charge one write's directory lookups: one batched RPC per
        distinct remote owner, fanned out in parallel, so the request
        waits for the slowest (repair pushes included).  Returns
        ``(net_delay, remote_lookups, remote_duplicate_blocks)``."""
        assert isinstance(node, ClusterNode)
        lookups, repairs, remote_dups = (
            directory_lookups if directory is not None else shard_lookups
        )(node, request)
        done = max(
            send(
                now, lookups, net.lookup_bytes, "rpc.lookup",
                root, request.req_id, "lookups",
            ),
            send(
                now, repairs, net.entry_bytes, "directory.repair",
                root, request.req_id, "entries",
            ),
        )
        delay = done - now
        remote_lookups = sum(lookups.values())
        node.remote_lookups += remote_lookups
        node.remote_duplicate_blocks += remote_dups
        node.net_delay_total += delay
        return delay, remote_lookups, remote_dups

    #: Stop-the-world GC window: arrivals stall until ``until`` while
    #: the sweep runs (the casstor "cleanup time" the online GC beats).
    stw_state: Dict[str, float] = {"until": 0.0, "stalled": 0.0, "processed": 0.0}
    stw_stall: Optional[Callable[[int], float]] = None

    # ------------------------------------------------------------------
    # node failure: degrade one node's array, rebuild it in place
    # ------------------------------------------------------------------
    rebuild_state: Dict[str, Optional[RebuildController]] = {"controller": None}
    if node_failure is not None:
        spec = node_failure
        failed = nodes[spec.node]

        def begin_node_failure() -> None:
            failed.failed_disk = spec.disk
            failed_at = sim.now
            live = (
                failed.scheme.map_table.live_pbas(failed.scheme.written_lbas)
                if spec.capacity_aware
                else None
            )
            ctrl = RebuildController.for_disk(
                failed.raid, spec.disk, failed.disks[spec.disk], live
            )
            rebuild_state["controller"] = ctrl
            if sampler is not None:
                sampler.note_activity(sim.now, "node_failure", 1.0)
            if obs.level >= TraceLevel.SUMMARY:
                obs.emit(
                    TraceLevel.SUMMARY,
                    sim.now,
                    EventType.CLUSTER_NODE_FAIL,
                    node=spec.node,
                    disk=spec.disk,
                )

            def complete_node_failure() -> None:
                failed.failed_disk = None
                if tracer is not None:
                    tracer.emit(
                        failed_at,
                        sim.now,
                        "recovery.rebuild",
                        node=spec.node,
                        disk=spec.disk,
                        rows_rebuilt=ctrl.rows_rebuilt,
                    )
                if obs.level >= TraceLevel.SUMMARY:
                    obs.emit(
                        TraceLevel.SUMMARY,
                        sim.now,
                        EventType.FAULT_RECOVER,
                        kind="node_failure",
                        latency=sim.now - failed_at,
                        detail=(
                            f"node {spec.node} disk {spec.disk} rebuilt: "
                            f"{ctrl.rows_rebuilt} rows rebuilt, "
                            f"{ctrl.rows_skipped} skipped"
                        ),
                    )

            # With jobs armed, reconstruction is a leased job: a
            # fail-slow stall that outlives the lease hands it to the
            # next epoch's claimant.  Background load on the failed
            # node's spindles only.
            pace_rebuild(
                sim,
                ctrl,
                spec.rows_per_batch,
                spec.interval,
                lambda ops: failed.service_disk_ops(sim.now, ops),
                complete_node_failure,
                jobs_runtime,
                sampler,
            )

        sim.schedule_callback(spec.time, begin_node_failure)

    # ------------------------------------------------------------------
    # metadata-node kill + stop-the-world GC baseline
    # ------------------------------------------------------------------
    if directory is not None and directory_cfg is not None:
        kill_spec = directory_cfg.kill
        if kill_spec is not None:
            kill = kill_spec

            def do_kill() -> None:
                assert directory is not None
                directory.kill(kill.node)
                if sampler is not None:
                    sampler.note_activity(sim.now, "metadata_kill", 1.0)
                if obs.level >= TraceLevel.SUMMARY:
                    obs.emit(
                        TraceLevel.SUMMARY,
                        sim.now,
                        EventType.FAULT_INJECT,
                        kind="metadata_kill",
                        detail=(
                            f"node {kill.node} directory replica down "
                            "(data plane unaffected)"
                        ),
                    )

            sim.schedule_callback(kill.time, do_kill)
        stw_spec = directory_cfg.gc
        if (
            refcount_gc is not None
            and stw_spec is not None
            and stw_spec.mode != MODE_ONLINE
        ):
            sweep_spec = stw_spec

            def stw_sweep() -> None:
                assert refcount_gc is not None
                processed = refcount_gc.drain_all()
                stall = processed * sweep_spec.entry_cost
                stw_state["processed"] += processed
                stw_state["until"] = sim.now + stall
                if sampler is not None and stall > 0:
                    sampler.annotate_interval("gc_stw", sim.now, sim.now + stall)
                if obs.level >= TraceLevel.SUMMARY:
                    obs.emit(
                        TraceLevel.SUMMARY,
                        sim.now,
                        EventType.FAULT_INJECT,
                        kind="gc_stw",
                        detail=(
                            f"stop-the-world gc: {processed} intents, "
                            f"{stall:.6f}s foreground stall"
                        ),
                    )

            def stw_release(_vid: int) -> float:
                # Foreground drained for the sweep; a held request
                # skips admission (see RequestPipeline.run).
                until = stw_state["until"]
                if until > sim.now:
                    stw_state["stalled"] += 1
                return until

            sim.schedule_callback(sweep_spec.start, stw_sweep)
            stw_stall = stw_release

    # ------------------------------------------------------------------
    # membership change + paced shard migration
    # ------------------------------------------------------------------
    if rebalance is not None:
        rb = rebalance

        def begin_rebalance() -> None:
            added = [nnodes + i for i in range(rb.add_nodes)]
            for member in added:
                router.add_member(member)
                shards.setdefault(member, {})
            if rb.remove_node is not None:
                router.remove_member(rb.remove_node)
            migrator = ShardMigrator(router, shards)
            migration["migrator"] = migrator
            if sampler is not None:
                sampler.note_activity(sim.now, "rebalance", 1.0)
            if obs.level >= TraceLevel.SUMMARY:
                obs.emit(
                    TraceLevel.SUMMARY,
                    sim.now,
                    EventType.CLUSTER_REBALANCE,
                    added=len(added),
                    removed=0 if rb.remove_node is None else 1,
                    moves=migrator.entries_total,
                    ring_size=router.ring_size(),
                )
            if migrator.done:
                return
            if jobs_runtime is not None:
                # Migration runs as a leased job; the per-link wire
                # charge happens at plan time (sunk cost on a fenced
                # step -- the bytes were already on the wire), the
                # directory mutation only at the fenced commit.
                jobs_runtime.submit(
                    "migrate",
                    MigrationJob(migrator, rb.entries_per_batch, send_entries),
                    rb.interval,
                )
                return
            sim.schedule_callback(sim.now + rb.interval, migrate_tick)

        def migrate_tick() -> None:
            migrator = migration["migrator"]
            assert migrator is not None
            links = migrator.next_batch(rb.entries_per_batch)
            if sampler is not None:
                sampler.note_activity(sim.now, "migration", migrator.progress)
            send_entries(links)
            if obs.level >= TraceLevel.SUMMARY:
                obs.emit(
                    TraceLevel.SUMMARY,
                    sim.now,
                    EventType.CLUSTER_MIGRATE,
                    moved=migrator.entries_migrated,
                    remaining=migrator.remaining,
                )
            if not migrator.done:
                sim.schedule_callback(sim.now + rb.interval, migrate_tick)

        sim.schedule_callback(rb.time, begin_rebalance)

    # ------------------------------------------------------------------

    pipe.run(
        extra_cost=lookup_cost if dir_active or net_active else None,
        stall=stw_stall,
        stall_skips_admission=True,
    )
    for node in nodes:
        if node.oracle is not None:
            node.oracle.assert_clean(node.scheme)

    # ------------------------------------------------------------------
    # cluster report sections
    # ------------------------------------------------------------------

    metrics = pipe.metrics
    node_summaries: List[Dict[str, Any]] = []
    cluster_stats: Optional[Dict[str, Any]] = None
    if cluster_active:
        tracked_nodes = set(metrics.node_ids())
        for node in nodes:
            node_entry: Dict[str, Any] = {
                "node_id": node.node_id,
                "name": node.name,
                "volumes": list(node.volume_ids),
                "logical_blocks": node.mapper.total_logical_blocks,
                "capacity_blocks": node.scheme.capacity_blocks(),
            }
            if node.node_id in tracked_nodes:
                node_entry.update(metrics.node_as_dict(node.node_id))
            else:  # node with no measured traffic
                node_entry["requests"] = 0
            # Raw whole-run node counters deliberately override the
            # measured-window metric counters of the same name: the
            # per-node breakdown must sum exactly to the cluster totals
            # below (which are whole-run).
            node_entry.update(
                {
                    "writes_total": node.scheme.writes_total,
                    "write_requests_removed": node.scheme.write_requests_removed,
                    "requests_served": node.requests_served,
                    "remote_lookups": node.remote_lookups,
                    "remote_duplicate_blocks": node.remote_duplicate_blocks,
                    "rebalance_misses": node.rebalance_misses,
                    "net_delay_total": node.net_delay_total,
                }
            )
            if directory is not None:
                node_entry["directory"] = directory.member_summary(node.node_id)
            node_summaries.append(node_entry)

        cluster_stats = {
            "nodes": nnodes,
            "vnodes": cluster.vnodes,
            "ring_members": list(router.members),
            "net": {
                "latency": net.latency,
                "bandwidth": net.bandwidth,
                "lookup_bytes": net.lookup_bytes,
                "entry_bytes": net.entry_bytes,
            },
            "fabric": fabric.summary(),
            "remote_lookups": sum(n.remote_lookups for n in nodes),
            "remote_duplicate_blocks": sum(
                n.remote_duplicate_blocks for n in nodes
            ),
            "rebalance_misses": sum(n.rebalance_misses for n in nodes),
            "shard_entries": (
                directory.entries_by_member()
                if directory is not None
                else {
                    str(member): len(shards[member]) for member in sorted(shards)
                }
            ),
        }
        migrator = migration["migrator"]
        if rebalance is not None:
            rb_stats: Dict[str, Any] = {
                "time": rebalance.time,
                "add_nodes": rebalance.add_nodes,
                "remove_node": rebalance.remove_node,
            }
            if migrator is not None:
                rb_stats.update(migrator.summary())
            cluster_stats["rebalance"] = rb_stats
        ctrl = rebuild_state["controller"]
        if node_failure is not None:
            nf_stats: Dict[str, Any] = {
                "node": node_failure.node,
                "disk": node_failure.disk,
                "time": node_failure.time,
            }
            if ctrl is not None:
                nf_stats.update(ctrl.summary())
            cluster_stats["node_failure"] = nf_stats
        if directory is not None and directory_cfg is not None:
            dir_stats: Dict[str, Any] = dict(directory.summary())
            if directory_cfg.kill is not None:
                dir_stats["kill"] = {
                    "node": directory_cfg.kill.node,
                    "time": directory_cfg.kill.time,
                }
            if refcount_gc is not None and directory_cfg.gc is not None:
                gc_stats: Dict[str, Any] = dict(refcount_gc.summary())
                gc_stats["mode"] = directory_cfg.gc.mode
                gc_stats["start"] = directory_cfg.gc.start
                gc_stats["batch"] = directory_cfg.gc.batch
                if directory_cfg.gc.mode != MODE_ONLINE:
                    gc_stats["stw_stalled_requests"] = int(stw_state["stalled"])
                    gc_stats["stw_processed_intents"] = int(
                        stw_state["processed"]
                    )
                dir_stats["gc"] = gc_stats
            cluster_stats["directory"] = dir_stats
        if cluster.verify_content:
            cluster_stats["oracle"] = [
                {"node": node.node_id, **node.oracle.summary()}
                for node in nodes
                if node.oracle is not None
            ]

    return pipe.result(nodes=node_summaries, cluster_stats=cluster_stats)
