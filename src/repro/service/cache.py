"""Keyed result cache with an LRU byte budget.

The service caches *serialized responses*: the value under a key is the
exact JSON byte string a query returns, so a cache hit is a dictionary
lookup plus a socket write — no analysis object is touched, let alone
recomputed.  Keys are built by :func:`result_key` from three fingerprints
(analysis kind + parameters, trace manifest, service configuration), which
gives invalidation-by-construction: an ingest that changes the manifest or
a config change rotates the fingerprint, so stale entries can never be
*served* — the explicit invalidation hooks exist to release their bytes,
not to protect correctness.

Evictions are least-recently-used over a byte budget (response sizes vary
by orders of magnitude between a summary and a per-car timeline, so entry
counts would be the wrong unit).  A single value larger than the whole
budget is returned to the caller but never stored.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass


def fingerprint(payload: str) -> str:
    """Short stable digest of a canonical string (first 16 hex chars)."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def result_key(kind: str, params: str, trace_fp: str, config_fp: str) -> str:
    """Cache key of one query result.

    ``kind`` and ``params`` identify the question, ``trace_fp`` the exact
    shard manifest the answer was computed over, and ``config_fp`` the
    service configuration (scenario, study length, thresholds).  Any
    ingest or reconfiguration changes a fingerprint and thereby the key.
    """
    return f"{kind}?{params}|trace={trace_fp}|config={config_fp}"


@dataclass(frozen=True)
class CacheStats:
    """Counters the ``/stats`` endpoint reports."""

    hits: int
    misses: int
    evictions: int
    entries: int
    current_bytes: int
    max_bytes: int


class ResultCache:
    """Thread-safe LRU byte-budgeted mapping of key -> response bytes.

    Readers and writers may live on different executor threads while the
    event loop inspects stats, so every operation takes the one lock; all
    operations are O(1) except an eviction sweep, which is amortized O(1)
    per insert.
    """

    def __init__(self, max_bytes: int) -> None:
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._current_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._lock = threading.Lock()

    def get(self, key: str) -> bytes | None:
        """The cached bytes under ``key``, refreshing its recency."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def peek(self, key: str) -> bytes | None:
        """Like :meth:`get` but without touching the hit/miss counters.

        Used for the double-checked lookup inside the compute lock, so one
        user-visible query counts as exactly one hit or miss.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: str, value: bytes) -> None:
        """Store ``value``, evicting least-recently-used entries to fit.

        A value over the whole budget is not stored at all: admitting it
        would evict everything for an entry that the next put evicts in
        turn, churning the cache to hold exactly one oversized response.
        """
        if len(value) > self.max_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._current_bytes -= len(old)
            self._entries[key] = value
            self._current_bytes += len(value)
            while self._current_bytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._current_bytes -= len(evicted)
                self._evictions += 1

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._current_bytes = 0
            return dropped

    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                current_bytes=self._current_bytes,
                max_bytes=self.max_bytes,
            )
