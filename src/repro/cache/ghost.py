"""Metadata-only ghost cache.

A ghost cache remembers the *keys* of recently evicted entries without
their data (Section III-C: "ghost index and ghost read caches that
store only metadata whose actual data are stored on the back-end
storage devices").  A hit in a ghost cache means: *had this cache been
larger, the access would have hit* -- the signal iCache's cost-benefit
estimator is built on.

The paper bounds ``actual + ghost`` by the total DRAM size, so the
ghost capacity is expressed in the same bytes-of-actual-data units as
the cache it shadows.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Iterable, Iterator, KeysView, List, Optional, TypeVar

from repro.errors import CacheError

K = TypeVar("K")


class GhostCache(Generic[K]):
    """Bounded LRU of keys with per-entry *represented* sizes.

    ``capacity_bytes`` caps the sum of represented sizes, i.e. how
    much actual cache the ghost stands in for.
    """

    def __init__(self, capacity_bytes: int, default_entry_size: int = 1) -> None:
        if capacity_bytes < 0:
            raise CacheError(f"negative ghost capacity {capacity_bytes}")
        if default_entry_size <= 0:
            raise CacheError("default entry size must be positive")
        self.capacity_bytes = capacity_bytes
        self.default_entry_size = default_entry_size
        self._keys: "OrderedDict[K, int]" = OrderedDict()
        self._used = 0
        #: Hits this epoch (the Access Monitor resets these).
        self.hits = 0
        #: Hits over the ghost cache's whole lifetime (observability;
        #: survives :meth:`reset_counters`).
        self.hits_total = 0
        #: Evictions recorded over the lifetime.
        self.evictions_recorded = 0

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: K) -> bool:
        return key in self._keys

    @property
    def used_bytes(self) -> int:
        return self._used

    def record_eviction(self, key: K, size: Optional[int] = None) -> List[K]:
        """Remember an evicted key; returns ghost keys aged out."""
        if size is None:
            size = self.default_entry_size
        elif size <= 0:
            raise CacheError(f"entry size must be positive, got {size}")
        self.evictions_recorded += 1
        keys = self._keys
        old = keys.pop(key, None)
        if old is not None:
            self._used -= old
        if size > self.capacity_bytes:
            return [key]
        keys[key] = size
        used = self._used + size
        capacity = self.capacity_bytes
        if used <= capacity:
            self._used = used
            return []
        # Age out in place: every Index-table and read-cache eviction
        # lands here.
        dropped: List[K] = []
        popitem = keys.popitem
        while used > capacity and keys:
            old_key, old_size = popitem(last=False)
            used -= old_size
            dropped.append(old_key)
        self._used = used
        return dropped

    def record_evictions(
        self, evicted: Iterable[K], size: Optional[int] = None
    ) -> List[K]:
        """:meth:`record_eviction` each key in order, all at one size.

        Returns the keys aged out along the way that are not ghosts at
        the end (a key aged out and then recorded again stays).
        """
        if size is None:
            size = self.default_entry_size
        elif size <= 0:
            raise CacheError(f"entry size must be positive, got {size}")
        keys = self._keys
        pop = keys.pop
        popitem = keys.popitem
        used = self._used
        capacity = self.capacity_bytes
        dropped: List[K] = []
        for key in evicted:
            self.evictions_recorded += 1
            old = pop(key, None)
            if old is not None:
                used -= old
            if size > capacity:
                dropped.append(key)
                continue
            keys[key] = size
            used += size
            while used > capacity and keys:
                old_key, old_size = popitem(last=False)
                used -= old_size
                dropped.append(old_key)
        self._used = used
        return [key for key in dropped if key not in keys]

    def hit(self, key: K) -> bool:
        """Check for *key*; on a hit, count it and remove the key
        (the caller is expected to re-admit the entry to the actual
        cache, as ARC does)."""
        size = self._keys.pop(key, None)
        if size is None:
            return False
        self._used -= size
        self.hits += 1
        self.hits_total += 1
        return True

    def remove(self, key: K) -> bool:
        """Silently drop *key* (no hit counted)."""
        size = self._keys.pop(key, None)
        if size is None:
            return False
        self._used -= size
        return True

    def remove_many(self, keys: Iterable[K]) -> None:
        """:meth:`remove` every key in ``keys``."""
        pop = self._keys.pop
        for key in keys:
            size = pop(key, None)
            if size is not None:
                self._used -= size

    def resize(self, new_capacity_bytes: int) -> List[K]:
        """Change capacity, aging out LRU ghosts as needed."""
        if new_capacity_bytes < 0:
            raise CacheError(f"negative ghost capacity {new_capacity_bytes}")
        self.capacity_bytes = new_capacity_bytes
        dropped: List[K] = []
        keys = self._keys
        while self._used > new_capacity_bytes and keys:
            key, size = keys.popitem(last=False)
            self._used -= size
            dropped.append(key)
        return dropped

    def keys(self) -> KeysView[K]:
        """Live read-only view of the ghost keys (membership tests
        without a method call; no hit counted)."""
        return self._keys.keys()

    def keys_mru(self) -> Iterator[K]:
        """Keys from most- to least-recently evicted (swap-in order)."""
        return reversed(self._keys)

    def reset_counters(self) -> None:
        self.hits = 0
