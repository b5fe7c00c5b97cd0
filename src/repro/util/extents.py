"""Sparse extent maps: ordered (offset -> Data) with hole-filling reads.

This is the in-memory representation of file and storage-object content
throughout the system (object stores, small-file zones, the reference model
filesystem).  Extents never overlap; writes split or replace whatever they
shadow.
"""

from __future__ import annotations

import bisect
from typing import List, Tuple

from .bytesim import Data, RealData, ZeroData, concat

__all__ = ["ExtentMap"]


class ExtentMap:
    """A sparse, immutable-content byte map supporting write/read/truncate."""

    def __init__(self) -> None:
        self._offsets: List[int] = []
        self._extents: List[Data] = []
        self.size = 0  # logical EOF: 1 + highest byte ever written (or truncate point)
        self._stored = 0  # sum of the extent lengths, kept by write/_drop_range

    # -- internal ------------------------------------------------------------

    def _cut(self, position: int) -> None:
        """Split any extent spanning ``position`` so it becomes a boundary."""
        idx = bisect.bisect_right(self._offsets, position) - 1
        if idx < 0:
            return
        start = self._offsets[idx]
        data = self._extents[idx]
        if start < position < start + data.length:
            left = data.slice(0, position - start)
            right = data.slice(position - start, data.length)
            self._offsets[idx] = start
            self._extents[idx] = left
            self._offsets.insert(idx + 1, position)
            self._extents.insert(idx + 1, right)

    def _drop_range(self, start: int, stop: int) -> None:
        """Remove all extents wholly inside [start, stop) (call _cut first)."""
        lo = bisect.bisect_left(self._offsets, start)
        hi = lo
        while hi < len(self._offsets) and self._offsets[hi] < stop:
            self._stored -= self._extents[hi].length
            hi += 1
        del self._offsets[lo:hi]
        del self._extents[lo:hi]

    # -- public API ----------------------------------------------------------

    def write(self, offset: int, data: Data) -> None:
        """Store ``data`` at ``offset``, replacing anything it shadows."""
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        if data.length == 0:
            return
        stop = offset + data.length
        self._cut(offset)
        self._cut(stop)
        self._drop_range(offset, stop)
        idx = bisect.bisect_left(self._offsets, offset)
        self._offsets.insert(idx, offset)
        self._extents.insert(idx, data)
        self._stored += data.length
        if stop > self.size:
            self.size = stop

    def read(self, offset: int, length: int) -> Data:
        """Read [offset, offset+length) clamped to EOF; holes read as zero."""
        if offset < 0 or length < 0:
            raise ValueError(f"bad read range: offset={offset} length={length}")
        stop = min(offset + length, self.size)
        if stop <= offset:
            return RealData(b"")
        parts: List[Data] = []
        pos = offset
        idx = bisect.bisect_right(self._offsets, offset) - 1
        if idx < 0:
            idx = 0
        while pos < stop and idx < len(self._offsets):
            ext_start = self._offsets[idx]
            ext = self._extents[idx]
            ext_stop = ext_start + ext.length
            if ext_stop <= pos:
                idx += 1
                continue
            if ext_start >= stop:
                break
            if ext_start > pos:
                parts.append(ZeroData(ext_start - pos))
                pos = ext_start
            lo = pos - ext_start
            hi = min(stop, ext_stop) - ext_start
            parts.append(ext.slice(lo, hi))
            pos = ext_start + hi
            idx += 1
        if pos < stop:
            parts.append(ZeroData(stop - pos))
        return concat(parts)

    def truncate(self, size: int) -> None:
        """Set logical size; discard content beyond it."""
        if size < 0:
            raise ValueError(f"negative size: {size}")
        if size < self.size:
            self._cut(size)
            self._drop_range(size, self.size)
        self.size = size

    def extents(self) -> List[Tuple[int, Data]]:
        """The live (offset, data) pairs, in offset order."""
        return list(zip(self._offsets, self._extents))

    def stored_bytes(self) -> int:
        """Bytes of actual (non-hole) content stored."""
        return self._stored

    def __repr__(self):
        return f"ExtentMap(size={self.size}, extents={len(self._extents)})"
