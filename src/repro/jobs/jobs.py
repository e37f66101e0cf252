"""Data-plane job types: bounded steps with commit-time state changes.

The control-plane/data-plane contract that makes stale-lease recovery
safe is *plan/commit separation*: a job step first **plans and issues**
its physical work (disk reads, wire transfers) from the last
*committed* cursor, and only **applies** the state change when the
worker's commit passes the epoch fence at the
:class:`~repro.jobs.store.JobStore`.  A worker stalled mid-step by a
fail-slow window has already paid the physical cost, but its state
change is discarded when the fence rejects the late commit -- the
replacement worker re-plans the same step from the same committed
cursor, so no step is lost and none is double-applied.  The
:class:`~repro.faults.oracle.ContentOracle` step ledger checks exactly
this: committed cursor intervals must chain ``0 -> total`` with no
overlap and no gap.

Three job kinds exist today:

* :class:`RebuildJob` -- wraps the RAID-5
  :class:`~repro.storage.rebuild.RebuildController` (cursor = disk
  row scanned);
* :class:`MigrationJob` -- wraps the cluster
  :class:`~repro.cluster.rebalance.ShardMigrator` (cursor = queued
  mover index);
* :class:`ScrubJob` -- the background scrubber, paced sequential
  reads over the volume that discover latent sector errors before
  foreground reads do (cursor = region index).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.errors import JobError
from repro.sim.request import DiskOp

if TYPE_CHECKING:  # avoid import cycles; closures duck-type at runtime
    from repro.cluster.rebalance import ShardMigrator
    from repro.jobs.runtime import JobRuntime
    from repro.obs.timeline import TimelineSampler
    from repro.sim.engine import Simulator
    from repro.storage.rebuild import RebuildController

#: Issues planned disk ops as background load; returns the completion time.
IssueFn = Callable[[List[DiskOp]], float]
#: Reads ``nblocks`` volume blocks starting at ``pba``; returns completion.
ReadFn = Callable[[int, int], float]
#: Charges per-link wire costs ``(src, dst) -> entries``; returns completion.
SendFn = Callable[[Dict[Tuple[int, int], int]], float]


class Step:
    """One planned-and-issued job step awaiting its fenced commit."""

    __slots__ = ("completion", "span", "commit")

    def __init__(
        self,
        completion: float,
        span: Tuple[int, int],
        commit: Callable[[], None],
    ) -> None:
        #: Simulated time the physical work finishes.
        self.completion = completion
        #: ``(start_cursor, end_cursor)`` covered, for the oracle ledger.
        self.span = span
        #: Applies the state change; called only under a valid fence.
        self.commit = commit


class LeasedJob:
    """Base contract every leased job satisfies.

    ``run_step`` must not mutate job state -- all mutation happens in
    the returned step's ``commit`` callback, which the runtime invokes
    only after the store accepts the (worker, epoch) fence.
    """

    kind = "job"

    def done(self) -> bool:
        raise NotImplementedError

    def progress(self) -> float:
        raise NotImplementedError

    def total(self) -> int:
        """Final cursor value when the job completes (ledger target)."""
        raise NotImplementedError

    def run_step(self, now: float) -> Step:
        raise NotImplementedError

    def summary(self) -> Dict[str, Any]:
        raise NotImplementedError


class RebuildJob(LeasedJob):
    """RAID-5 member reconstruction as a leased job."""

    kind = "rebuild"

    def __init__(
        self, ctrl: "RebuildController", rows_per_batch: int, issue: IssueFn
    ) -> None:
        if rows_per_batch < 1:
            raise JobError(f"rows_per_batch must be >= 1, got {rows_per_batch}")
        self.ctrl = ctrl
        self.rows_per_batch = rows_per_batch
        self._issue = issue

    def done(self) -> bool:
        return self.ctrl.done

    def progress(self) -> float:
        return self.ctrl.progress

    def total(self) -> int:
        return self.ctrl.disk_rows

    def run_step(self, now: float) -> Step:
        start = self.ctrl.cursor
        ops, nxt = self.ctrl.plan_rows(start, self.rows_per_batch)
        completion = self._issue(ops) if ops else now
        ctrl = self.ctrl
        return Step(completion, (start, nxt), lambda: ctrl.commit_rows(start, nxt))

    def summary(self) -> Dict[str, Any]:
        return {
            "disk_rows": self.ctrl.disk_rows,
            "rows_scanned": self.ctrl.rows_scanned,
            "rows_rebuilt": self.ctrl.rows_rebuilt,
            "rows_skipped": self.ctrl.rows_skipped,
        }


def pace_rebuild(
    sim: "Simulator",
    ctrl: "RebuildController",
    rows_per_batch: int,
    interval: float,
    issue: IssueFn,
    on_done: Callable[[], None],
    jobs: Optional["JobRuntime"] = None,
    timeline: Optional["TimelineSampler"] = None,
) -> None:
    """Reconstruct ``ctrl``'s member as paced background load on
    ``issue``: a leased :class:`RebuildJob` when ``jobs`` is armed,
    else one batch every ``interval`` with its progress noted on
    ``timeline``.  ``on_done()`` runs once the member is rebuilt.

    The fault injector's member failure and the cluster's node failure
    both rebuild through here.
    """
    if jobs is not None:
        jobs.submit(
            "rebuild",
            RebuildJob(ctrl, rows_per_batch, issue),
            interval,
            on_done=lambda _t: on_done(),
        )
        return

    def tick() -> None:
        if not ctrl.done:
            ops = ctrl.next_batch(rows_per_batch)
            if ops:
                # Background load: competes for the spindles, gates
                # nothing.
                issue(ops)
        if timeline is not None:
            timeline.note_activity(sim.now, "rebuild", ctrl.progress)
        if ctrl.done:
            on_done()
            return
        sim.schedule_callback(sim.now + interval, tick)

    sim.schedule_callback(sim.now + interval, tick)


class MigrationJob(LeasedJob):
    """Paced shard migration as a leased job."""

    kind = "migrate"

    def __init__(
        self, migrator: "ShardMigrator", entries_per_batch: int, send: SendFn
    ) -> None:
        if entries_per_batch < 1:
            raise JobError(
                f"entries_per_batch must be >= 1, got {entries_per_batch}"
            )
        self.migrator = migrator
        self.entries_per_batch = entries_per_batch
        self._send = send

    def done(self) -> bool:
        return self.migrator.done

    def progress(self) -> float:
        return self.migrator.progress

    def total(self) -> int:
        return self.migrator.entries_total

    def run_step(self, now: float) -> Step:
        start = self.migrator.cursor
        links, end = self.migrator.plan_batch(start, self.entries_per_batch)
        completion = self._send(links) if links else now
        mig = self.migrator
        return Step(completion, (start, end), lambda: mig.commit_batch(start, end))

    def summary(self) -> Dict[str, Any]:
        return dict(self.migrator.summary())


class ScrubJob(LeasedJob):
    """Background scrubber: one volume region read per step."""

    kind = "scrub"

    def __init__(
        self,
        total_blocks: int,
        region_blocks: int,
        read: ReadFn,
        regions_cap: int = 0,
    ) -> None:
        if total_blocks < 1:
            raise JobError(f"nothing to scrub: {total_blocks} blocks")
        if region_blocks < 1:
            raise JobError(f"region_blocks must be >= 1, got {region_blocks}")
        self.total_blocks = total_blocks
        self.region_blocks = region_blocks
        full_pass = -(-total_blocks // region_blocks)
        self.total_regions = min(full_pass, regions_cap) if regions_cap > 0 else full_pass
        self._read = read
        #: Committed cursor: regions fully scrubbed.
        self.regions_scrubbed = 0
        self.blocks_scrubbed = 0

    def done(self) -> bool:
        return self.regions_scrubbed >= self.total_regions

    def progress(self) -> float:
        return self.regions_scrubbed / self.total_regions

    def total(self) -> int:
        return self.total_regions

    def run_step(self, now: float) -> Step:
        start = self.regions_scrubbed
        pba = start * self.region_blocks
        nblocks = min(self.region_blocks, self.total_blocks - pba)
        completion = self._read(pba, nblocks)

        def commit() -> None:
            self.regions_scrubbed = start + 1
            self.blocks_scrubbed += nblocks

        return Step(completion, (start, start + 1), commit)

    def summary(self) -> Dict[str, Any]:
        return {
            "regions_total": self.total_regions,
            "regions_scrubbed": self.regions_scrubbed,
            "blocks_scrubbed": self.blocks_scrubbed,
        }
