"""RAID-5 rebuild: reconstructing a failed member onto a spare.

The paper's authors study reconstruction performance elsewhere (IDO,
LISA'12) and motivate POD partly through RAID-5's write economics, so
the natural extension question is: *does deduplication help rebuild?*
A rebuild reads every surviving member's stripe unit of each row and
writes the reconstructed unit to the spare -- full-bandwidth work that
competes with foreground traffic for the same spindles.

:class:`RebuildController` walks the rows in batches:

* **capacity-oblivious** (default) -- every row is rebuilt, like `md`
  without a write-intent bitmap;
* **capacity-aware** -- rows holding no live data are skipped (the
  controller is given the set of live volume blocks, which a dedup
  scheme shrinks); this is the dedup-rebuild synergy measured by
  ``benchmarks/bench_ablation_rebuild.py``.

The controller only *plans* disk ops; the replay harness paces the
batches and charges them as background load.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import StorageError
from repro.sim.request import DiskOp, OpType
from repro.storage.disk import Disk
from repro.storage.raid import RaidArray, RaidLevel


class RebuildController:
    """Plans the row-by-row reconstruction of one failed member."""

    def __init__(
        self,
        raid: RaidArray,
        failed_disk: int,
        disk_rows: int,
        live_pbas: Optional[Iterable[int]] = None,
    ) -> None:
        g = raid.geometry
        if g.level is not RaidLevel.RAID5:
            raise StorageError("rebuild only exists on RAID-5")
        if not (0 <= failed_disk < g.ndisks):
            raise StorageError(f"no member disk {failed_disk}")
        if disk_rows < 1:
            raise StorageError("need at least one row to rebuild")
        self.raid = raid
        self.failed_disk = failed_disk
        self.disk_rows = disk_rows
        self._next_row = 0
        self.rows_rebuilt = 0
        self.rows_skipped = 0
        #: Total rows examined by :meth:`next_batch` (rebuilt + skipped);
        #: the unit in which per-batch work is bounded.
        self.rows_scanned = 0
        #: Rows containing at least one live block, or None = all rows.
        self._live_rows: Optional[Set[int]] = None
        if live_pbas is not None:
            su = g.stripe_unit_blocks
            row_blocks = g.data_disks * su
            self._live_rows = {pba // row_blocks for pba in live_pbas}

    @classmethod
    def for_disk(
        cls,
        raid: RaidArray,
        failed_disk: int,
        disk: Disk,
        live_pbas: Optional[Iterable[int]] = None,
    ) -> "RebuildController":
        """Rebuild every stripe-unit row of the failed member ``disk``."""
        rows = disk.params.total_blocks // raid.geometry.stripe_unit_blocks
        return cls(raid, failed_disk, max(1, rows), live_pbas)

    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._next_row >= self.disk_rows

    @property
    def progress(self) -> float:
        """Fraction of rows processed (rebuilt or skipped)."""
        return self._next_row / self.disk_rows

    @property
    def cursor(self) -> int:
        """Committed scan cursor: the next row to examine."""
        return self._next_row

    def plan_rows(self, start_row: int, rows: int) -> Tuple[List[DiskOp], int]:
        """Plan reconstruction traffic for ``rows`` rows from
        ``start_row`` *without* advancing any state.

        Pure with respect to controller state so a leased-job worker
        can re-plan the same step after a stale-lease re-claim; the
        legacy pacing path composes this with :meth:`commit_rows`.
        Returns ``(ops, next_row)``.
        """
        if rows < 1:
            raise StorageError("batch must cover at least one row")
        g = self.raid.geometry
        su = g.stripe_unit_blocks
        ops: List[DiskOp] = []
        end = min(start_row + rows, self.disk_rows)
        if end < start_row:
            end = start_row
        for row in range(start_row, end):
            if self._live_rows is not None and row not in self._live_rows:
                continue
            disk_pba = row * su
            for disk in range(g.ndisks):
                if disk != self.failed_disk:
                    ops.append(DiskOp(disk, OpType.READ, disk_pba, su))
            ops.append(DiskOp(self.failed_disk, OpType.WRITE, disk_pba, su))
        return ops, end

    def commit_rows(self, start_row: int, next_row: int) -> None:
        """Apply one planned batch: advance the cursor and counters.

        Rejects a commit whose start does not match the committed
        cursor -- the hard stop against a fenced worker's step being
        double-applied.
        """
        if start_row != self._next_row:
            raise StorageError(
                f"rebuild commit at row {start_row} does not match the "
                f"committed cursor {self._next_row}"
            )
        if next_row < start_row or next_row > self.disk_rows:
            raise StorageError(
                f"rebuild commit range [{start_row}, {next_row}) out of bounds"
            )
        for row in range(start_row, next_row):
            self.rows_scanned += 1
            if self._live_rows is not None and row not in self._live_rows:
                self.rows_skipped += 1
            else:
                self.rows_rebuilt += 1
        self._next_row = next_row

    def next_batch(self, rows: int = 1) -> List[DiskOp]:
        """Plan the next ``rows`` rows' reconstruction traffic.

        Each rebuilt row costs one stripe-unit read per surviving
        member plus one stripe-unit write to the spare (modelled as
        the failed slot's replacement, same disk id).  Rows with no
        live data are skipped in capacity-aware mode.

        Work is bounded by rows *scanned*, not rows rebuilt: a batch
        over a sparse disk examines at most ``rows`` rows even when
        every one of them is skipped.  (The earlier behaviour --
        decrementing the budget only for rebuilt rows -- let a single
        call walk arbitrarily many rows on a mostly-empty disk,
        defeating the pacing the replay harness relies on.)

        Equivalent to :meth:`plan_rows` + :meth:`commit_rows` in one
        call (the jobs-off pacing path).
        """
        ops, end = self.plan_rows(self._next_row, rows)
        self.commit_rows(self._next_row, end)
        return ops

    def summary(self) -> Dict[str, Any]:
        """Progress snapshot for fault and cluster reports."""
        return {
            "done": self.done,
            "progress": self.progress,
            "rows_scanned": self.rows_scanned,
            "rows_rebuilt": self.rows_rebuilt,
            "rows_skipped": self.rows_skipped,
        }
