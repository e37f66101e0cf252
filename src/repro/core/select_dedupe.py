"""Select-Dedupe: the request-based selective deduplication scheme.

The write-path half of POD (Section III-B).  Two cooperating modules:

* the **Data Deduplicator** splits incoming write data into 4 KB
  chunks, fingerprints them (32 us/chunk charged by the hash engine),
  and resolves each fingerprint against the hot in-memory Index table
  -- a miss simply means "treat as unique"; POD never pays an on-disk
  index lookup;
* the **Request Redirector** applies the Figure-5 categorisation and
  commits the decision: categories 1 and 3 are deduplicated (Map-table
  update only for the redundant runs), category 2 is written to disk
  untouched so subsequent reads stay sequential.

Unlike iDedup, category 1 has no minimum size: a single fully
redundant 4 KB write is eliminated -- that is the performance-
sensitive small-write elimination the paper's title is about.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines.base import DedupScheme, SchemeConfig
from repro.core.categorize import Category, categorize_write
from repro.obs.events import EventType, TraceLevel
from repro.sim.request import IORequest
from repro.storage.volume import VolumeOp

#: The (shared, never mutated) extra-op list of an in-memory lookup.
_NO_OPS: List[VolumeOp] = []


class SelectDedupe(DedupScheme):
    """Selective request-based deduplication (POD's write path)."""

    name = "Select-Dedupe"
    features = {
        "capacity_saving": True,
        "performance_enhancement": True,
        "small_writes_elimination": True,
        "large_writes_elimination": True,
        "cache_partitioning": "static",
    }

    def __init__(self, config: SchemeConfig) -> None:
        super().__init__(config)
        #: Requests per Figure-5 category (workload diagnostics).
        self.category_counts: Dict[Category, int] = {c: 0 for c in Category}

    def _lookup_fingerprint(self, fingerprint: int) -> Tuple[Optional[int], List[VolumeOp]]:
        assert self.index_table is not None
        entry = self.index_table.lookup(fingerprint)
        if entry is not None:
            return entry.pba, _NO_OPS
        # Hot-index miss: treated as unique data.  Tell the cache so
        # iCache's ghost index can measure the opportunity cost.
        self.cache.on_index_miss(fingerprint)
        return None, _NO_OPS

    def _choose_dedupe(
        self, request: IORequest, duplicate_pbas: Sequence[Optional[int]]
    ) -> Set[int]:
        decision = categorize_write(duplicate_pbas, self.config.select_threshold)
        self.category_counts[decision.category] += 1
        if self.obs.level >= TraceLevel.CHUNK:
            self.obs.emit(
                TraceLevel.CHUNK,
                self._obs_now,
                EventType.REQUEST_CLASSIFY,
                req_id=request.req_id,
                **decision.to_fields(request.nblocks),
            )
        return set(decision.dedupe_chunks)

    def stats(self) -> dict:
        out = super().stats()
        for category, count in self.category_counts.items():
            out[f"category_{category.value}_{category.name.lower()}"] = count
        return out
