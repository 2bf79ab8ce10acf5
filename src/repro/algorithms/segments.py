"""Segmented array scans for grouped (ragged) data.

The fused engine's kernels flatten per-car / per-cell groups into one
contiguous array ordered group-major.  This module provides the primitives
those kernels share: expanding per-row counts into ragged ``(owner,
offset)`` ranges, numbering contiguous segments, and a segmented running
maximum.

Exactness matters here: the fused engine is parity-tested to produce
bit-identical results to the per-record reference loops, so every
helper must reproduce sequential float semantics.  ``maximum`` never
rounds, which is why the doubling scan in :func:`segmented_cummax` is safe;
``cumsum``/``ufunc.at`` (used by callers) accumulate in element order, which
matches a Python ``+=`` loop.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt


def segment_ids(is_start: npt.NDArray[np.bool_]) -> npt.NDArray[np.int64]:
    """0-based contiguous segment number per row.

    ``is_start`` marks the first row of each segment; the first row of a
    non-empty array must be marked, because every row belongs to a segment.
    """
    if is_start.size and not is_start[0]:
        raise ValueError("first row must start a segment")
    out: npt.NDArray[np.int64] = np.cumsum(is_start, dtype=np.int64) - 1
    return out


def ragged_ranges(
    counts: npt.NDArray[np.int64],
) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.int64]]:
    """Expand per-owner counts into ``(owner, offset)`` fragment arrays.

    For ``counts = [2, 1, 3]`` the result is ``owner = [0 0 1 2 2 2]`` and
    ``offset = [0 1 0 0 1 2]`` — the flattened equivalent of
    ``for i, c in enumerate(counts): for j in range(c)``, fragments ordered
    exactly as that double loop visits them.
    """
    if counts.size and int(counts.min()) < 0:
        raise ValueError("counts must be non-negative")
    total = int(counts.sum())
    owner: npt.NDArray[np.intp] = np.repeat(
        np.arange(counts.size, dtype=np.intp), counts
    )
    first = np.cumsum(counts) - counts
    offset: npt.NDArray[np.int64] = (
        np.arange(total, dtype=np.int64) - np.repeat(first, counts)
    )
    return owner, offset


def segmented_cummax(
    values: npt.NDArray[np.float64], is_start: npt.NDArray[np.bool_]
) -> npt.NDArray[np.float64]:
    """Running maximum of ``values`` within each contiguous segment.

    A Hillis-Steele doubling scan: ``log2`` of the longest segment's
    length vectorized passes, each merging a window twice the previous
    size, guarded so windows never cross a segment boundary.  ``maximum``
    is exact on floats, so the result is bit-identical to a sequential
    per-row loop.
    """
    out = values.astype(np.float64, copy=True)
    n = out.size
    if n == 0:
        return out
    starts = np.flatnonzero(is_start)
    # With few segments a per-segment ``maximum.accumulate`` loop is O(n)
    # and beats the O(n log n) doubling scan; both are exact, because
    # ``maximum`` never rounds.
    if starts.size * 16 <= n:
        bounds = np.append(starts, n).tolist()
        for a, b in zip(bounds[:-1], bounds[1:]):
            np.maximum.accumulate(out[a:b], out=out[a:b])
        return out
    seg = segment_ids(is_start)
    # Windows double until they span the longest segment; wider ones would
    # only compare rows of different segments.
    longest = int(np.diff(np.append(starts, n)).max())
    shift = 1
    while shift < longest:
        same = seg[shift:] == seg[:-shift]
        np.maximum(
            out[shift:],
            np.where(same, out[:-shift], -np.inf),
            out=out[shift:],
        )
        shift <<= 1
    return out
