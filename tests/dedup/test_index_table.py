"""Unit tests for the Index table (hot fingerprints with Count)."""

import pytest

from repro.cache.lru import LRUCache
from repro.constants import INDEX_ENTRY_SIZE
from repro.dedup.index_table import IndexEntry, IndexTable
from repro.errors import DedupError


def make_table(entries=8):
    lru = LRUCache(entries * INDEX_ENTRY_SIZE, default_entry_size=INDEX_ENTRY_SIZE)
    return IndexTable(lru)


class TestLookupInsert:
    def test_insert_and_lookup(self):
        t = make_table()
        t.insert(101, 7)
        entry = t.lookup(101)
        assert entry is not None and entry.pba == 7

    def test_count_starts_zero_and_increments_on_hits(self):
        t = make_table()
        t.insert(101, 7)
        assert t.peek(101).count == 0
        t.lookup(101)
        t.lookup(101)
        assert t.peek(101).count == 2

    def test_peek_does_not_count(self):
        t = make_table()
        t.insert(101, 7)
        t.peek(101)
        assert t.peek(101).count == 0

    def test_miss_returns_none(self):
        assert make_table().lookup(999) is None

    def test_contains_len(self):
        t = make_table()
        t.insert(1, 1)
        assert 1 in t and len(t) == 1

    def test_requires_index_sized_lru(self):
        with pytest.raises(DedupError):
            IndexTable(LRUCache(100, default_entry_size=1))


class TestInvalidation:
    def test_invalidate_pba_removes_entry(self):
        t = make_table()
        t.insert(101, 7)
        assert t.invalidate_pba(7) is True
        assert t.lookup(101) is None

    def test_invalidate_unknown_pba(self):
        assert make_table().invalidate_pba(99) is False

    def test_insert_displaces_stale_pba_claim(self):
        t = make_table()
        t.insert(101, 7)
        t.insert(202, 7)  # the content at PBA 7 changed
        assert t.lookup(101) is None
        assert t.lookup(202).pba == 7

    def test_reinsert_same_fingerprint_new_pba(self):
        t = make_table()
        t.insert(101, 7)
        t.insert(101, 9)
        assert t.lookup(101).pba == 9
        # the old PBA claim must be gone
        assert t.invalidate_pba(7) is False

    def test_remove(self):
        t = make_table()
        t.insert(101, 7)
        assert t.remove(101) is True
        assert t.invalidate_pba(7) is False
        assert t.remove(101) is False


class TestEvictionFlow:
    def test_lru_eviction_reported_via_drain(self):
        t = make_table(entries=2)
        t.insert(1, 10)
        t.insert(2, 11)
        t.insert(3, 12)
        evicted = t.drain_evicted()
        assert [fp for fp, _ in evicted] == [1]
        assert t.drain_evicted() == []

    def test_evicted_entry_pba_claim_dropped(self):
        t = make_table(entries=2)
        t.insert(1, 10)
        t.insert(2, 11)
        t.insert(3, 12)
        t.drain_evicted()
        assert t.invalidate_pba(10) is False


class TestResizeRestore:
    def test_resize_returns_victims_and_cleans_reverse_map(self):
        t = make_table(entries=4)
        for fp in range(4):
            t.insert(fp, fp + 100)
        victims = t.resize(2 * INDEX_ENTRY_SIZE)
        assert [fp for fp, _ in victims] == [0, 1]
        assert t.invalidate_pba(100) is False
        assert len(t) == 2

    def test_restore_roundtrip(self):
        t = make_table(entries=4)
        for fp in range(4):
            t.insert(fp, fp + 100)
        victims = t.resize(2 * INDEX_ENTRY_SIZE)
        t.resize(4 * INDEX_ENTRY_SIZE)
        fp, entry = victims[0]
        assert t.restore(fp, entry) is True
        assert t.lookup(fp).pba == entry.pba

    def test_restore_refuses_when_full(self):
        t = make_table(entries=1)
        t.insert(1, 10)
        assert t.restore(2, IndexEntry(pba=11)) is False

    def test_restore_refuses_conflicts(self):
        t = make_table(entries=4)
        t.insert(1, 10)
        assert t.restore(1, IndexEntry(pba=99)) is False  # fp present
        assert t.restore(2, IndexEntry(pba=10)) is False  # pba claimed

    def test_stats(self):
        t = make_table()
        t.insert(1, 10)
        t.lookup(1)
        t.lookup(2)
        s = t.stats()
        assert s["entries"] == 1 and s["hits"] == 1 and s["misses"] == 1


class TestEvictionSinkAndBulkRestore:
    def test_sink_receives_insert_victims_directly(self):
        t = make_table(entries=2)
        seen = []
        t.evict_to(lambda fp, entry: seen.append((fp, entry.pba)))
        for fp in range(4):
            t.insert(fp, fp + 100)
        assert seen == [(0, 100), (1, 101)]
        assert t.drain_evicted() == []
        assert set(t.pba_claims) == {102, 103}

    def test_resize_still_returns_victims_with_a_sink(self):
        t = make_table(entries=4)
        t.evict_to(lambda fp, entry: None)
        for fp in range(4):
            t.insert(fp, fp + 100)
        assert [fp for fp, _ in t.resize(2 * INDEX_ENTRY_SIZE)] == [0, 1]

    def test_restore_many_skips_conflicts_and_stops_when_full(self):
        t = make_table(entries=4)
        t.insert(1, 10)
        candidates = [
            (1, IndexEntry(pba=99)),  # fingerprint live
            (2, IndexEntry(pba=10)),  # PBA claimed by fingerprint 1
            (3, IndexEntry(pba=30)),
            (4, IndexEntry(pba=30)),  # PBA claimed by candidate 3
            (5, IndexEntry(pba=50)),
            (6, IndexEntry(pba=60)),
            (7, IndexEntry(pba=70)),  # no slot left
        ]
        assert t.restore_many(candidates) == [3, 5, 6]
        assert t.lru.keys_lru_order() == [1, 3, 5, 6]
        assert dict(t.pba_claims) == {10: 1, 30: 3, 50: 5, 60: 6}
