"""Incremental-ingest planning: shard scans, manifest diffs, fingerprints.

The service's perf centerpiece is never re-sweeping bytes it has already
seen.  This module provides the bookkeeping that makes that safe: a *scan*
lists the trace's shards in canonical fold order (``resolve_shards``
order) with each file's identity stamp, and a *diff* against the set of
identities the service already holds partials for says exactly which
shards need a map sweep.  Identity is ``(path, size, mtime_ns)`` — a shard
rewritten in place gets a new stamp and is treated as removed-plus-added,
so its stale partial can never be folded.

The scan also defines the trace fingerprint used in cache keys: any change
to the shard set (or any shard's bytes) rotates the fingerprint, which
retires every cached response computed over the old manifest.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.cdr.errors import CDRValidationError
from repro.cdr.store import resolve_shards
from repro.service.cache import fingerprint

#: What identifies one shard file's contents without reading it.
ShardKey = tuple[str, int, int]


@dataclass(frozen=True)
class ShardEntry:
    """One shard as seen by a scan, in canonical fold order."""

    path: str
    size: int
    mtime_ns: int

    @property
    def key(self) -> ShardKey:
        """The shard's identity stamp."""
        return (self.path, self.size, self.mtime_ns)


@dataclass(frozen=True)
class ManifestDiff:
    """What changed between the partial cache and a fresh scan."""

    #: Scan entries with no cached partial, paired with their scan index.
    added: tuple[tuple[int, ShardEntry], ...]
    #: Cached identities that no longer appear in the scan.
    removed: tuple[ShardKey, ...]
    #: Scan entries whose cached partial is still valid.
    unchanged: tuple[ShardEntry, ...]

    @property
    def changed(self) -> bool:
        """Whether the fold (and thus every cached result) is stale."""
        return bool(self.added or self.removed)


def scan_shards(source: str | Path) -> list[ShardEntry]:
    """List the trace's shards in fold order with identity stamps.

    Only ``stat`` calls — no shard is opened, so a scan over thousands of
    shards costs microseconds and can run on every ingest request.
    """
    entries: list[ShardEntry] = []
    for path in resolve_shards(source):
        try:
            stat = path.stat()
        except OSError as exc:
            reason = exc.strerror or exc
            raise CDRValidationError(f"{path}: unreadable shard: {reason}") from exc
        entries.append(
            ShardEntry(
                path=str(path), size=stat.st_size, mtime_ns=stat.st_mtime_ns
            )
        )
    return entries


def diff_manifest(
    known: Collection[ShardKey], scan: Sequence[ShardEntry]
) -> ManifestDiff:
    """Split a scan into new work, retired state and reusable partials."""
    seen = {entry.key for entry in scan}
    added = tuple(
        (index, entry)
        for index, entry in enumerate(scan)
        if entry.key not in known
    )
    removed = tuple(sorted(key for key in known if key not in seen))
    unchanged = tuple(entry for entry in scan if entry.key in known)
    return ManifestDiff(added=added, removed=removed, unchanged=unchanged)


def trace_fingerprint(scan: Sequence[ShardEntry]) -> str:
    """Digest of the ordered shard identities; rotates on any change."""
    stamped = ";".join(
        f"{entry.path}:{entry.size}:{entry.mtime_ns}" for entry in scan
    )
    return fingerprint(stamped)
