"""Columnar batch replay: the vectorized front-end of the event loop.

The request pipeline (:mod:`repro.sim.pipeline`) schedules one heap
event per request arrival and plans each request inside its event
handler.  That is fully general -- and pays interpreter dispatch per
event.  This driver shares the pipeline's setup and result assembly
but replaces its loop with a specialised one, exploiting three
structural facts of the fast path (analytic FCFS service, no faults,
no observation):

1. **Planning is clock-free.**  ``scheme.process(request, now)`` never
   reads ``now`` on the fast path (it only feeds observation), so
   requests can be planned in arrival order *ahead* of disk servicing.
2. **Completion is scheme-free.**  Finishing a request touches only
   the disks and the metrics collector, never scheme state.
3. **Epoch ticks are the only interleaving.**  A scheme's ``on_epoch``
   does mutate scheme state, so plan-ahead is windowed: all arrivals
   up to a tick's timestamp are planned (in arrival order) before the
   tick fires, exactly the order the event loop would have produced
   (arrival events always outrank callbacks on timestamp ties, because
   every arrival's heap sequence number is assigned at setup).

Planning therefore proceeds in windows over the *columnar* trace
(:mod:`repro.traces.columnar`).  Each window goes to the scheme's
:meth:`DedupScheme.plan_columns` first, which may plan straight off
the column lists; when it declines, requests are materialised via the
no-validation :meth:`IORequest.raw` and handed to
:meth:`DedupScheme.plan_batch` together with first-stream-occurrence
masks (the scheme decides whether those guaranteed-miss hints apply).

Completions replay through one merged arrival-cursor + callback-heap
loop that reproduces the engine's ``(time, seq)`` event order exactly.
Disk service runs on mirrored per-disk locals (``_svc``); an extent
inside one stripe unit is placed with :meth:`RaidArray.locate`'s
arithmetic, every other extent goes through :meth:`RaidArray.map`.

The result is **bit-identical** to the pipeline's for every scheme,
array geometry and batch size (pinned by golden tests), at a multiple
of its throughput (see ``BENCH_replay.json`` and
``docs/performance.md``).  Configurations outside the fast path
(schedulers, faults, SSD, telemetry, ...) are detected by
:func:`batch_eligible` and fall back to the pipeline silently --
which is bit-identical anyway.
"""

from __future__ import annotations

import gc
import math
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines.base import DedupScheme, PlannedIO
from repro.constants import BLOCK_SIZE
from repro.errors import ConfigError
from repro.metrics.collector import MetricsCollector
from repro.sim.pipeline import node_disks, replay_result
from repro.sim.replay import ReplayConfig, ReplayResult
from repro.sim.request import IORequest, OpType
from repro.storage.disk import Disk
from repro.storage.namespace import NamespaceMapper
from repro.storage.raid import RaidArray, RaidLevel
from repro.traces.columnar import ColumnarTrace, MergedColumns, merge_columnar
from repro.traces.format import Trace

__all__ = ["batch_eligible", "replay_columnar", "DEFAULT_BATCH_SIZE"]

#: Planning window, in requests.  Large enough to amortise the NumPy
#: slicing per batch, small enough to keep materialised request
#: windows cache-friendly; results are invariant to it (tested).
DEFAULT_BATCH_SIZE = 4096

#: Heap entry kinds for the servicing loop (compared after seq, so the
#: values never decide order -- seqs are unique).
_FINISH = 0
_TICK = 1


def batch_eligible(config: ReplayConfig) -> bool:
    """Can this replay config take the columnar fast path?

    The batch driver reproduces the *fast* path of the event loop:
    analytic FCFS disks, healthy array, no SSD tier, no telemetry or
    tracing, no invariant checking.  Anything else falls back to the
    object path (bit-identical, just slower).
    """
    return (
        config.scheduler is None
        and config.failed_disk is None
        and config.ssd_params is None
        and not config.check_invariants
        and config.faults is None
        and config.fault_seed is None
        and config.timeline is None
        and not config.spans
        and config.slo is None
        and config.jobs is None
    )


def replay_columnar(
    traces: Sequence[Union[Trace, ColumnarTrace]],
    scheme: DedupScheme,
    config: ReplayConfig = ReplayConfig(),
    collector: Optional[MetricsCollector] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    per_volume_metrics: bool = True,
) -> ReplayResult:
    """Replay N trace streams through the columnar batch core.

    Accepts :class:`Trace` or :class:`ColumnarTrace` inputs (the shard
    workers of the parallel runner ship columns directly).  Requires a
    :func:`batch_eligible` config -- callers wanting automatic
    fallback should go through ``replay_traces(..., batch_size=...)``.
    """
    if not traces:
        raise ConfigError("replay_columnar needs at least one trace")
    if not batch_eligible(config):
        raise ConfigError("replay config is outside the columnar fast path")
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")

    ctraces = [
        t if isinstance(t, ColumnarTrace) else ColumnarTrace.from_trace(t)
        for t in traces
    ]
    mapper = NamespaceMapper((ct.name, ct.logical_blocks) for ct in ctraces)
    disks = node_disks(scheme, config, mapper.total_logical_blocks)
    metrics = collector if collector is not None else MetricsCollector()
    if per_volume_metrics:
        metrics.track_volumes()

    merged = merge_columnar(
        ctraces, [mapper.volume(vid).base for vid in range(len(ctraces))]
    )
    boundary = {"writes": 0, "removed": 0}
    if len(merged):
        # The batch core churns short-lived acyclic objects (plans and
        # volume ops die by refcount); generational GC scans are pure
        # overhead here, so gate the collector off for the hot loop.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            _replay_merged(
                merged, scheme, RaidArray(config.geometry()), disks, metrics,
                config, batch_size, len(ctraces) > 1, boundary,
            )
        finally:
            if gc_was_enabled:
                gc.enable()
    return replay_result(
        ctraces, [scheme], disks, metrics, boundary, per_volume_metrics
    )


def _replay_merged(
    merged: MergedColumns,
    scheme: DedupScheme,
    raid: RaidArray,
    disks: List[Disk],
    metrics: MetricsCollector,
    config: ReplayConfig,
    batch_size: int,
    multi: bool,
    boundary: Dict[str, int],
) -> None:
    """Plan (windowed, batched) and service (event-ordered) the merged
    stream.  Mutates ``scheme``/``disks``/``metrics``/``boundary``."""
    n = len(merged)
    times = merged.times
    times_l = times.tolist()
    lbas_l = merged.lbas.tolist()
    nblocks_l = merged.nblocks.tolist()
    vids_l = merged.volume_ids.tolist()
    is_write_l = (merged.ops == 1).tolist()
    offsets_l = merged.fp_offsets.tolist()
    fp_ids_l = merged.fp_ids.tolist()
    unique_l = merged.first_unique.tolist()
    pool = merged.pool
    measured_l = merged.measured.tolist()
    collect_warmup = config.collect_warmup

    # Fig. 11 boundary snapshot position: the first measured arrival
    # (see replay_traces -- the snapshot happens *before* that request
    # is processed, so planning splits there).
    measured_idx = np.flatnonzero(merged.measured)
    boundary_idx: int = int(measured_idx[0]) if len(measured_idx) else n

    # ------------------------------------------------------------------
    # epoch tick schedule (times accumulate exactly as the event loop's
    # reschedule chain does: T_{k+1} = T_k + interval in float64).
    # ------------------------------------------------------------------
    tick_times: List[float] = []
    tick_wends: List[int] = []
    if scheme.epoch_interval is not None:
        interval = scheme.epoch_interval
        if interval <= 0:
            raise ConfigError("epoch interval must be positive")
        last_arrival = times_l[-1]
        t = times_l[0] + interval
        while True:
            tick_times.append(t)
            nxt = t + interval
            if nxt > last_arrival + interval:
                break
            t = nxt
        # Planning-window end per tick: first arrival strictly after
        # the tick (arrivals at the tick's exact time precede it --
        # their heap seqs were assigned at setup).
        tick_wends = np.searchsorted(times, tick_times, side="right").tolist()

    # ------------------------------------------------------------------
    # planning state
    # ------------------------------------------------------------------
    requests: List[Optional[IORequest]] = [None] * n
    planned: List[Optional[PlannedIO]] = [None] * n
    cross: List[int] = [0] * n
    tick_ops: List[list] = []
    # Cross-volume dedup accounting: first writer volume per fingerprint
    # id (``merge_columnar`` interns the pool, so ids stand for values).
    fp_owner: Optional[Dict[int, int]] = {} if multi else None
    plan_cursor = 0
    plan_tick = 0
    plan_batch = scheme.plan_batch
    plan_columns = scheme.plan_columns
    raw = IORequest.raw
    write_op = OpType.WRITE
    read_op = OpType.READ

    def _plan_range(a: int, b: int) -> None:
        """Plan arrivals [a, b) (never crosses a tick window or the
        warm-up boundary): straight off the columns when the scheme
        can, else through materialised requests."""
        if a == boundary_idx:
            boundary["writes"] = scheme.writes_total
            boundary["removed"] = scheme.write_requests_removed
        plans = plan_columns(
            a, b, is_write_l, lbas_l, nblocks_l, offsets_l, fp_ids_l, pool
        )
        if plans is None:
            batch: List[IORequest] = []
            append_req = batch.append
            pool_at = pool.__getitem__
            # First-occurrence masks; ``plan_batch`` decides whether
            # they apply to this scheme.
            masks: Optional[List[Optional[List[bool]]]] = (
                [] if scheme.uses_fingerprints else None
            )
            for i in range(a, b):
                if is_write_l[i]:
                    lo = offsets_l[i]
                    hi = offsets_l[i + 1]
                    fps: Optional[Tuple[int, ...]] = tuple(
                        map(pool_at, fp_ids_l[lo:hi])
                    )
                    req = raw(times_l[i], write_op, lbas_l[i], nblocks_l[i], fps, i, vids_l[i])
                    if masks is not None:
                        masks.append(unique_l[lo:hi])
                else:
                    req = raw(times_l[i], read_op, lbas_l[i], nblocks_l[i], None, i, vids_l[i])
                    if masks is not None:
                        masks.append(None)
                requests[i] = req
                append_req(req)
            plans = plan_batch(batch, masks)
        planned[a:b] = plans
        if fp_owner is not None:
            owner_get = fp_owner.get
            owner_set = fp_owner.setdefault
            for i in range(a, b):
                if not is_write_l[i]:
                    continue
                lo = offsets_l[i]
                vid = vids_l[i]
                c = 0
                for k in plans[i - a].deduped_idx:
                    owner = owner_get(fp_ids_l[lo + k])
                    if owner is not None and owner != vid:
                        c += 1
                for fid in fp_ids_l[lo : offsets_l[i + 1]]:
                    owner_set(fid, vid)
                if c:
                    cross[i] = c

    def _plan_chunk() -> None:
        """Advance planning by (up to) one batch or one tick."""
        nonlocal plan_cursor, plan_tick
        cursor = plan_cursor
        tick = plan_tick
        wend = tick_wends[tick] if tick < len(tick_wends) else n
        if cursor >= wend and tick < len(tick_times):
            # Every arrival in this window is planned: fire the tick's
            # scheme-state half (its disk half runs in event order).
            tick_ops.append(scheme.on_epoch(tick_times[tick]))
            plan_tick = tick + 1
            return
        stop = min(wend, cursor + batch_size)
        if cursor < boundary_idx < stop:
            stop = boundary_idx
        _plan_range(cursor, stop)
        plan_cursor = stop

    def ensure_planned(idx: int) -> None:
        while plan_cursor <= idx:
            _plan_chunk()

    def ensure_tick_planned(k: int) -> None:
        while plan_tick <= k:
            _plan_chunk()

    # ------------------------------------------------------------------
    # servicing: exact replay of the engine's (time, seq) event order.
    # Arrival events got seqs 0..n-1 at setup, so every callback seq is
    # larger -- an arrival always wins a timestamp tie.
    # ------------------------------------------------------------------
    heap: List[Tuple[float, int, int, int]] = []
    seq = n
    if tick_times:
        heappush(heap, (tick_times[0], seq, _TICK, 0))
        seq += 1

    raid_map = raid.map
    record = metrics.record
    interval_f = scheme.epoch_interval if scheme.epoch_interval is not None else 0.0
    last_arrival_f = times_l[-1]

    # ------------------------------------------------------------------
    # disk mechanics, mirrored into flat locals.  Every service goes
    # through ``_svc`` below and the state is flushed back to the Disk
    # objects once at the end.  The per-disk accumulation order equals
    # the object path's ``Disk.service`` call order, so every float is
    # bit-identical; the bounds check is elided (raid-mapped ops on
    # disks sized by ``size_disks`` are in bounds by construction, and
    # the eligibility gate excludes fail-slow windows).
    # ------------------------------------------------------------------
    g = raid.geometry
    su = g.stripe_unit_blocks
    nd = g.ndisks
    nd1 = nd - 1
    dd = g.data_disks
    raid5 = g.level is RaidLevel.RAID5
    params = disks[0].params
    d_total = params.total_blocks
    smin = params.seek_min
    sdelta = params.seek_max - params.seek_min
    rate = params.transfer_rate
    overhead = params.controller_overhead
    rot = 60.0 / params.rpm / 2.0
    sqrt = math.sqrt
    blk = BLOCK_SIZE
    d_head = [d.head for d in disks]
    d_busy = [d.busy_until for d in disks]
    d_ops = [d.ops_serviced for d in disks]
    d_blocks = [d.blocks_moved for d in disks]
    d_busyt = [d.busy_time for d in disks]
    d_seek = [d.seek_time_total for d in disks]
    d_rot = [d.rotation_time_total for d in disks]
    d_xfer = [d.transfer_time_total for d in disks]

    def _svc(d: int, now: float, pba: int, n: int) -> float:
        """``Disk.service`` on the mirrored locals (bit-identical)."""
        busy = d_busy[d]
        start = busy if busy > now else now
        dist = pba - d_head[d]
        if dist < 0:
            dist = -dist
        if dist > 0:
            frac = dist / d_total
            if frac > 1.0:
                frac = 1.0
            seek = smin + sdelta * sqrt(frac)
            rot_t = rot
        else:
            seek = 0.0
            rot_t = 0.0
        transfer = n * blk / rate
        duration = overhead + seek + rot_t + transfer
        d_head[d] = pba + n
        done = start + duration
        d_busy[d] = done
        d_ops[d] += 1
        d_blocks[d] += n
        d_busyt[d] += duration
        d_seek[d] += seek
        d_rot[d] += rot_t
        d_xfer[d] += transfer
        return done

    def _finish(i: int, issue_time: float) -> None:
        plan = planned[i]
        assert plan is not None
        if plan.ssd_read_blocks or plan.ssd_write_blocks:
            raise ConfigError(
                f"scheme {scheme.name} emitted SSD traffic but the replay "
                "has no ssd_params configured"
            )
        completion = issue_time
        for vop in plan.volume_ops:
            pba = vop.pba
            n = vop.nblocks
            offset = pba % su
            if offset + n <= su:
                # Extent inside one stripe unit: a single fragment,
                # placed with ``RaidArray.locate``'s arithmetic and
                # serviced without DiskOp objects.
                unit = pba // su
                row = unit // dd
                lane = unit - row * dd
                dpba = row * su + offset
                if not raid5:
                    done = _svc(lane % nd, issue_time, dpba, n)
                else:
                    parity = nd1 - row % nd
                    disk = (parity + 1 + lane) % nd
                    if vop.op is read_op:
                        done = _svc(disk, issue_time, dpba, n)
                    else:
                        # A one-fragment write is a partial stripe
                        # (data_disks >= 2): ``map_write``'s
                        # read-modify-write, data then parity.
                        _svc(disk, issue_time, dpba, n)
                        done = _svc(disk, issue_time, dpba, n)
                        _svc(parity, issue_time, dpba, n)
                        pdone = _svc(parity, issue_time, dpba, n)
                        if pdone > done:
                            done = pdone
                if done > completion:
                    completion = done
            else:
                for op in raid_map(vop):
                    done = _svc(op.disk_id, issue_time, op.pba, op.nblocks)
                    if done > completion:
                        completion = done
        if collect_warmup or measured_l[i]:
            req = requests[i]
            if req is None:
                # Zero-materialisation planning left no request object;
                # build the minimal one the collector reads (op /
                # nblocks / volume id -- it never touches fingerprints).
                req = raw(
                    times_l[i],
                    write_op if is_write_l[i] else read_op,
                    lbas_l[i],
                    nblocks_l[i],
                    None,
                    i,
                    vids_l[i],
                )
                requests[i] = req
            record(
                req,
                times_l[i],
                completion,
                plan.eliminated,
                plan.cache_hit_blocks,
                plan.deduped_blocks,
                cross[i],
            )
        if plan.background_ops:
            for vop in plan.background_ops:
                for op in raid_map(vop):
                    _svc(op.disk_id, issue_time, op.pba, op.nblocks)

    cursor = 0
    while cursor < n or heap:
        if cursor < n and (not heap or times_l[cursor] <= heap[0][0]):
            i = cursor
            cursor += 1
            if plan_cursor <= i:
                ensure_planned(i)
            plan = planned[i]
            assert plan is not None
            now = times_l[i]
            if plan.delay > 0:
                heappush(heap, (now + plan.delay, seq, _FINISH, i))
                seq += 1
            else:
                _finish(i, now)
        else:
            t, _s, kind, payload = heappop(heap)
            if kind == _FINISH:
                _finish(payload, t)
            else:
                ensure_tick_planned(payload)
                ops = tick_ops[payload]
                if ops:
                    for vop in ops:
                        for op in raid_map(vop):
                            _svc(op.disk_id, t, op.pba, op.nblocks)
                nxt = t + interval_f
                if nxt <= last_arrival_f + interval_f:
                    heappush(heap, (nxt, seq, _TICK, payload + 1))
                    seq += 1
    # Drain remaining planning (ticks past the last arrival's window
    # were already popped above; anything left is warm-up-only traces
    # with no events -- impossible here since n > 0 -- or final ticks
    # whose planning fired inside the loop).
    ensure_planned(n - 1)
    # Flush the mirrored disk state back to the Disk objects.
    for d, disk in enumerate(disks):
        disk.head = d_head[d]
        disk.busy_until = d_busy[d]
        disk.ops_serviced = d_ops[d]
        disk.blocks_moved = d_blocks[d]
        disk.busy_time = d_busyt[d]
        disk.seek_time_total = d_seek[d]
        disk.rotation_time_total = d_rot[d]
        disk.transfer_time_total = d_xfer[d]
