"""One POD node inside a cluster replay.

A :class:`ClusterNode` is a :class:`~repro.sim.pipeline.Node` with a
private RAID array over private member disks, one
:class:`~repro.baselines.base.DedupScheme` (Index table, Map table,
iCache budget and all), and a node-local
:class:`~repro.storage.namespace.NamespaceMapper` over the volumes
assigned to the node.  Every node is a *complete, standard* POD
instance: the cluster layer above it routes dedup lookups and pays
network costs, but data placement, Select-Dedupe decisions, sanitizer
invariants and the content oracle all remain per-node properties.

Disk service goes through the engine's one analytic FCFS loop
(:func:`repro.sim.engine.service_fcfs`), so a one-node cluster produces
byte-identical traces and utilisation tables to the classic engine
path.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.baselines.base import DedupScheme
from repro.errors import ClusterError
from repro.sim.engine import Simulator, raid_translate, service_fcfs
from repro.sim.pipeline import Node
from repro.sim.request import DiskOp, OpType
from repro.storage.disk import Disk
from repro.storage.namespace import NamespaceMapper
from repro.storage.raid import RaidArray
from repro.storage.volume import VolumeOp


class ClusterNode(Node):
    """A POD node: scheme + RAID array + member disks + volume map.

    Parameters
    ----------
    node_id:
        Dense cluster-wide node index (0..N-1).
    scheme:
        The node's dedup scheme, sized for the node's own volumes.
    disks:
        The node's member disks, ordered by *local* disk index; each
        carries a cluster-unique ``disk_id`` for trace events and
        utilisation keys.
    raid:
        The node's RAID array (geometry must match ``len(disks)``).
    mapper:
        Node-local namespace over the node's volumes, in global
        volume-id order.
    sim:
        The cluster's shared event loop (its clock stamps issue times;
        its recorder receives ``DISK_OP`` events).
    """

    def __init__(
        self,
        node_id: int,
        scheme: DedupScheme,
        disks: Sequence[Disk],
        raid: RaidArray,
        mapper: NamespaceMapper,
        sim: Simulator,
    ) -> None:
        if node_id < 0:
            raise ClusterError(f"negative node id {node_id}")
        if len(disks) != raid.geometry.ndisks:
            raise ClusterError(
                f"node {node_id}: raid geometry wants {raid.geometry.ndisks} "
                f"disks, got {len(disks)}"
            )
        super().__init__(
            scheme, list(disks), self.issue_volume_ops, self.scrub_extent,
            node_id=node_id,
        )
        self.name = f"node{node_id}"
        self.raid = raid
        self.mapper = mapper
        self.sim = sim
        #: Failed member disk (local index), or None when healthy.
        self.failed_disk: Optional[int] = None
        #: Global volume ids served by this node, in arrival-merge order.
        self.volume_ids: List[int] = []
        # -- cluster accounting (fed by the replay driver) --------------
        self.remote_lookups = 0
        self.remote_duplicate_blocks = 0
        self.rebalance_misses = 0
        self.net_delay_total = 0.0

    # ------------------------------------------------------------------
    # disk service
    # ------------------------------------------------------------------

    def service_disk_ops(self, now: float, ops: Sequence[DiskOp]) -> float:
        """Issue raw per-disk ops FCFS; return the last completion time."""
        return service_fcfs(self.disks, self.sim.obs, now, ops)

    def service_volume_ops(self, now: float, ops: Sequence[VolumeOp]) -> float:
        """RAID-translate the node's volume extents and service them."""
        disk_ops = raid_translate(self.raid, self.failed_disk, ops)
        return self.service_disk_ops(now, disk_ops)

    def issue_volume_ops(
        self, ops: Sequence[VolumeOp], on_complete: Callable[[float], None]
    ) -> None:
        """Service ``ops`` now and report their completion (analytic)."""
        on_complete(self.service_volume_ops(self.sim.now, ops))

    def scrub_extent(self, pba: int, nblocks: int) -> float:
        """A scrubber read, through the RAID layer so degraded rows
        reconstruct like any foreground read."""
        return self.service_volume_ops(
            self.sim.now, [VolumeOp(OpType.READ, pba, nblocks)]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterNode({self.name}, scheme={self.scheme.name!r}, "
            f"volumes={self.volume_ids})"
        )
