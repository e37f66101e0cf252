"""The discrete-event simulator core.

The engine owns the clock, the event queue, the member disks and the
RAID mapper.  Disks are serviced FCFS: because :meth:`Disk.service`
computes completion analytically from the disk's busy horizon, an op
*issued* at simulation time *t* starts at ``max(t, busy_until)`` --
ops are therefore served in issue order, which the event loop keeps
equal to timestamp order.

Higher layers interact through two calls:

* :meth:`Simulator.schedule_callback` -- run a function at a future
  simulated time (used for fingerprint delays, iCache epochs, request
  finalisation).
* :meth:`Simulator.service_volume_ops` -- translate volume extents
  through the RAID layer onto the disks and return the time at which
  the *last* of them completes (a request is done when all its disk
  ops are done).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.obs.events import EventType, TraceLevel
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.request import DiskOp
from repro.storage.disk import Disk
from repro.storage.raid import RaidArray
from repro.storage.volume import VolumeOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.scheduler import DiskScheduler

#: Fault-injection hook signature: consulted per disk op on the
#: analytic path with ``(now, op)``; returns a completion time to
#: override normal service, or ``None`` to fall through.
FaultHook = Callable[[float, DiskOp], Optional[float]]


class Simulator:
    """Discrete-event engine over a set of disks behind a RAID layer.

    Two disk-service modes:

    * **analytic FCFS** (default, ``schedulers=None``) -- completion
      times computed at issue time from each disk's busy horizon; fast
      and exact for FCFS.
    * **event-driven** -- pass per-disk
      :class:`~repro.storage.scheduler.DiskScheduler` objects and use
      :meth:`issue_disk_ops` / :meth:`issue_volume_ops`; ops complete
      via events, which permits reordering policies such as C-LOOK.
    """

    def __init__(
        self,
        disks: Sequence[Disk],
        raid: Optional[RaidArray],
        schedulers: Optional[Sequence["DiskScheduler"]] = None,
        failed_disk: Optional[int] = None,
    ) -> None:
        if raid is None:
            # Bare event-loop mode (clock + queue only): the caller owns
            # all disk state and services ops itself -- used by the
            # cluster replay, where each node has a private array.
            if disks:
                raise SimulationError("bare event-loop mode takes no disks")
            if schedulers:
                raise SimulationError("bare event-loop mode takes no schedulers")
            if failed_disk is not None:
                raise SimulationError("bare event-loop mode has no disks to fail")
        elif len(disks) != raid.geometry.ndisks:
            raise SimulationError(
                f"raid geometry wants {raid.geometry.ndisks} disks, got {len(disks)}"
            )
        self.disks: List[Disk] = list(disks)
        self.raid: Optional[RaidArray] = raid
        self.schedulers: Optional[List["DiskScheduler"]] = (
            list(schedulers) if schedulers is not None else None
        )
        if self.schedulers is not None and len(self.schedulers) != len(self.disks):
            raise SimulationError("need one scheduler per disk")
        self.failed_disk = failed_disk
        if failed_disk is not None and not (0 <= failed_disk < len(self.disks)):
            raise SimulationError(f"no member disk {failed_disk} to fail")
        self.queue = EventQueue()
        self.now: float = 0.0
        self.events_processed: int = 0
        #: Attached trace recorder (observation only; the disabled
        #: default costs one integer compare per guarded site).
        self.obs: TraceRecorder = NULL_RECORDER
        #: Fault-injection hook consulted per disk op on the analytic
        #: path: return a completion time to *override* normal service
        #: (the hook did the mechanical work itself, e.g. a failed
        #: read plus its parity reconstruction), or ``None`` to fall
        #: through.  ``None`` by default -- the healthy path pays one
        #: ``is not None`` test per op.
        self.fault_hook: Optional[FaultHook] = None

    def attach_observer(self, recorder: TraceRecorder) -> None:
        """Attach a trace recorder for disk-level micro-events."""
        self.obs = recorder

    def _translate(self, ops: Sequence[VolumeOp]) -> List[DiskOp]:
        if self.raid is None:
            raise SimulationError("bare event-loop engine cannot translate volume ops")
        return raid_translate(self.raid, self.failed_disk, ops)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule_callback(
        self, time: float, fn: Callable[..., None], *args: object
    ) -> Event:
        """Run ``fn(*args)`` at simulated ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(f"callback scheduled in the past ({time} < {self.now})")
        return self.queue.schedule(time, EventKind.CALLBACK, (fn, args))

    def schedule_arrival(self, time: float, payload: object) -> Event:
        """Schedule a REQUEST_ARRIVAL event (consumed by the replay
        harness's registered handler)."""
        return self.queue.schedule(time, EventKind.REQUEST_ARRIVAL, payload)

    # ------------------------------------------------------------------
    # disk service
    # ------------------------------------------------------------------

    def service_disk_ops(self, now: float, ops: Sequence[DiskOp]) -> float:
        """Issue raw per-disk ops FCFS; return the last completion time.

        An empty op list completes immediately at ``now``.
        """
        if self.schedulers is not None:
            raise SimulationError(
                "analytic service is unavailable with event-driven "
                "schedulers; use issue_disk_ops"
            )
        return service_fcfs(self.disks, self.obs, now, ops, self.fault_hook)

    def service_volume_ops(self, now: float, ops: Sequence[VolumeOp]) -> float:
        """Translate volume extents through RAID and service them."""
        return self.service_disk_ops(now, self._translate(ops))

    # ------------------------------------------------------------------
    # callback-style issue (works in both service modes)
    # ------------------------------------------------------------------

    def issue_disk_ops(
        self, ops: Sequence[DiskOp], on_complete: Callable[[float], None]
    ) -> None:
        """Issue ops at the current time; ``on_complete(t)`` fires once
        the last of them is done.

        In analytic mode the callback runs synchronously with the
        computed (possibly future) completion timestamp; in event-
        driven mode it runs when the completion event fires, with the
        then-current clock.
        """
        if self.schedulers is None:
            on_complete(self.service_disk_ops(self.now, ops))
            return
        if not ops:
            on_complete(self.now)
            return
        state = {"left": len(ops)}

        def one_done() -> None:
            state["left"] -= 1
            if state["left"] == 0:
                on_complete(self.now)

        for op in ops:
            if not (0 <= op.disk_id < len(self.schedulers)):
                raise SimulationError(f"op addressed to unknown disk {op.disk_id}")
            self.schedulers[op.disk_id].submit(self, op, one_done)

    def issue_volume_ops(
        self, ops: Sequence[VolumeOp], on_complete: Callable[[float], None]
    ) -> None:
        """RAID-translate and issue with a completion callback."""
        self.issue_disk_ops(self._translate(ops), on_complete)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(
        self,
        arrival_handler: Optional[Callable[[float, object], None]] = None,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Drain the event queue.

        Parameters
        ----------
        arrival_handler:
            Called as ``handler(now, payload)`` for every
            REQUEST_ARRIVAL event.  Required if any are scheduled.
        until:
            Stop (leaving events queued) once the clock passes this.
        max_events:
            Safety valve for tests.
        """
        # Hot loop: hoist every invariant attribute/global into locals
        # (measured: the pop/dispatch overhead is paid once per event,
        # millions of times on production-size replays).
        queue = self.queue
        pop = queue.pop
        callback_kind = EventKind.CALLBACK
        arrival_kind = EventKind.REQUEST_ARRIVAL
        processed = self.events_processed
        try:
            while queue:
                if until is not None:
                    next_time = queue.peek_time()
                    if next_time is not None and next_time > until:
                        break
                event = pop()
                time = event.time
                if time < self.now:
                    raise SimulationError("event queue returned an event in the past")
                self.now = time
                processed += 1
                kind = event.kind
                if kind is callback_kind:
                    fn, args = event.payload
                    fn(*args)
                elif kind is arrival_kind:
                    if arrival_handler is None:
                        raise SimulationError("arrival event with no registered handler")
                    arrival_handler(time, event.payload)
                else:  # pragma: no cover - future event kinds
                    raise SimulationError(f"unhandled event kind {kind}")
                if max_events is not None and processed >= max_events:
                    break
        finally:
            self.events_processed = processed

    # ------------------------------------------------------------------

    def utilisation(self) -> Dict[int, Dict[str, float]]:
        """Per-disk utilisation summary (for reports and debugging)."""
        return disk_utilisation(self.disks)


def raid_translate(
    raid: RaidArray, failed_disk: Optional[int], ops: Sequence[VolumeOp]
) -> List[DiskOp]:
    """Map volume extents onto member-disk ops (degraded reads
    reconstruct around ``failed_disk``)."""
    disk_ops: List[DiskOp] = []
    for vop in ops:
        if failed_disk is not None:
            disk_ops.extend(raid.map_degraded(vop, failed_disk))
        else:
            disk_ops.extend(raid.map(vop))
    return disk_ops


def service_fcfs(
    disks: Sequence[Disk],
    obs: TraceRecorder,
    now: float,
    ops: Sequence[DiskOp],
    fault_hook: Optional[FaultHook] = None,
) -> float:
    """Service raw per-disk ops FCFS at ``now``; return the last
    completion time (``now`` for an empty list).

    The one analytic service loop: the engine's array and every
    cluster node's private array go through it.  ``DISK_OP`` events
    name the disk by its ``disk_id``, which is cluster-unique on a
    node and equal to the member index on a single array.
    """
    completion = now
    trace_ops = obs.level >= TraceLevel.CHUNK
    ndisks = len(disks)
    for op in ops:
        if not (0 <= op.disk_id < ndisks):
            raise SimulationError(f"op addressed to unknown disk {op.disk_id}")
        if fault_hook is not None:
            hooked = fault_hook(now, op)
            if hooked is not None:
                if hooked > completion:
                    completion = hooked
                continue
        disk = disks[op.disk_id]
        busy_before = disk.busy_until if trace_ops else 0.0
        done = disk.service(now, op.pba, op.nblocks)
        if trace_ops:
            obs.emit(
                TraceLevel.CHUNK,
                now,
                EventType.DISK_OP,
                disk=disk.disk_id,
                op=op.op.value,
                pba=op.pba,
                nblocks=op.nblocks,
                start=max(now, busy_before),
                done=done,
            )
        if done > completion:
            completion = done
    return completion


def queue_lag(disks: Sequence[Disk], now: float) -> float:
    """Worst backlog across ``disks``: how far the busiest disk's busy
    horizon extends past ``now`` (0 when idle).  The timeline sampler
    records this as a per-window gauge."""
    lag = 0.0
    for disk in disks:
        d = disk.busy_until - now
        if d > lag:
            lag = d
    return lag


def disk_utilisation(disks: Sequence[Disk]) -> Dict[int, Dict[str, float]]:
    """Per-disk utilisation summary for any disk set, keyed by
    ``disk_id`` (the engine, every cluster node and the columnar batch
    driver all report through it)."""
    return {
        disk.disk_id: {
            "ops": disk.ops_serviced,
            "blocks": disk.blocks_moved,
            "busy_time": disk.busy_time,
            "seek_time": disk.seek_time_total,
            "rotation_time": disk.rotation_time_total,
            "transfer_time": disk.transfer_time_total,
        }
        for disk in disks
    }
