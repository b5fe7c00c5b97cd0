"""Object store: the flat space of storage objects served by a storage node.

Objects follow the NSIC OBSD / CMU NASD model the paper builds on: an
ordered byte sequence named by a unique identifier, addressed by logical
offset, with physical placement private to the store.

Content is split into *stable* data (on disk / committed) and an *unstable*
overlay (NFS V3 unsafe writes buffered in memory).  A crash discards the
overlay; a commit merges it down.  Physical block addresses are assigned on
first write, sequentially per allocation stream — FFS-style clustering, so
files written together land together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.util.bytesim import EMPTY, Data
from repro.util.extents import ExtentMap

__all__ = ["StorageObject", "ObjectStore", "BLOCK_SIZE"]

BLOCK_SIZE = 8 << 10


@dataclass
class StorageObject:
    """One storage object: stable content plus an unstable overlay."""

    object_id: bytes
    stable: ExtentMap = field(default_factory=ExtentMap)
    unstable: ExtentMap = field(default_factory=ExtentMap)
    unstable_ranges: List[Tuple[int, int]] = field(default_factory=list)
    # logical block number -> physical disk address (set on first write)
    block_phys: Dict[int, int] = field(default_factory=dict)
    # blocks in first-write order — the node-local layout sequence; for a
    # striped file this is the subsequence of file blocks this node owns,
    # which is what the node's sequential prefetch walks (FFS read-ahead
    # follows the local file's block chain, not the global file offsets)
    block_order: List[int] = field(default_factory=list)
    # block -> its position in block_order, kept beside it
    block_index: Dict[int, int] = field(default_factory=dict)
    # FFS-style per-file cluster allocation: blocks are carved from private
    # extents so concurrent writers do not interleave on disk.
    alloc_next: int = 0
    alloc_remaining: int = 0

    @property
    def size(self) -> int:
        return max(self.stable.size, self.unstable.size)

    def read(self, offset: int, length: int) -> Data:
        """Merged view: unstable overlay wins over stable content."""
        stop = min(offset + length, self.size)
        if stop <= offset:
            return EMPTY
        # Merge: read stable, then splice overlapping unstable ranges on top.
        merged = ExtentMap()
        if self.stable.size > offset:
            merged.write(offset, self.stable.read(offset, stop - offset))
        for lo, hi in self.unstable_ranges:
            a = max(lo, offset)
            b = min(hi, stop)
            if b > a:
                merged.write(a, self.unstable.read(a, b - a))
        merged.truncate(max(merged.size, stop))
        return merged.read(offset, stop - offset)

    def write(self, offset: int, data: Data, stable: bool) -> None:
        if stable:
            self.stable.write(offset, data)
            # Stable data shadows any older unstable bytes beneath it.
            self._punch_unstable(offset, offset + data.length)
        else:
            self.unstable.write(offset, data)
            self._add_unstable_range(offset, offset + data.length)

    def commit(self, offset: int = 0, length: Optional[int] = None) -> int:
        """Merge unstable data down to stable; returns bytes committed.

        Per NFS V3, (offset=0, length=None) commits the whole object.
        """
        stop = (
            self.unstable.size
            if length is None
            else min(offset + length, self.unstable.size)
        )
        committed = 0
        remaining: List[Tuple[int, int]] = []
        for lo, hi in self.unstable_ranges:
            a, b = max(lo, offset), min(hi, stop)
            if b > a:
                self.stable.write(a, self.unstable.read(a, b - a))
                committed += b - a
                if lo < a:
                    remaining.append((lo, a))
                if b < hi:
                    remaining.append((b, hi))
            else:
                remaining.append((lo, hi))
        self.unstable_ranges = remaining
        if not remaining:
            self.unstable = ExtentMap()
        return committed

    def discard_unstable(self) -> None:
        """Crash semantics: uncommitted writes vanish."""
        self.unstable = ExtentMap()
        self.unstable_ranges = []

    def truncate(self, size: int) -> None:
        self.stable.truncate(size)
        self.unstable.truncate(size)
        self._punch_unstable(size, 1 << 62)
        dropped = [b for b in self.block_phys if b * BLOCK_SIZE >= size]
        for block in dropped:
            del self.block_phys[block]
        if dropped:
            gone = set(dropped)
            self.block_order = [b for b in self.block_order if b not in gone]
            self.block_index = {b: i for i, b in enumerate(self.block_order)}

    def _add_unstable_range(self, lo: int, hi: int) -> None:
        self._punch_unstable(lo, hi)
        self.unstable_ranges.append((lo, hi))
        self.unstable_ranges.sort()
        # Coalesce adjacent/overlapping ranges.
        merged: List[Tuple[int, int]] = []
        for a, b in self.unstable_ranges:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        self.unstable_ranges = merged

    def _punch_unstable(self, lo: int, hi: int) -> None:
        out: List[Tuple[int, int]] = []
        for a, b in self.unstable_ranges:
            if b <= lo or a >= hi:
                out.append((a, b))
                continue
            if a < lo:
                out.append((a, lo))
            if b > hi:
                out.append((hi, b))
        self.unstable_ranges = out

    def stored_bytes(self) -> int:
        return self.stable.stored_bytes() + self.unstable.stored_bytes()


class ObjectStore:
    """All objects on one storage node, plus their physical placement."""

    def __init__(self, allocate_phys=None):
        self._objects: Dict[bytes, StorageObject] = {}
        # Physical allocator hook: nbytes -> phys address.  Defaults to a
        # private bump pointer (tests); nodes pass their DiskArray's.
        self._bump = 0

        def default_alloc(nbytes: int) -> int:
            phys = self._bump
            self._bump += nbytes
            return phys

        self.allocate_phys = allocate_phys or default_alloc
        self.objects_created = 0
        self.objects_removed = 0

    def get(self, object_id: bytes, create: bool = False) -> Optional[StorageObject]:
        obj = self._objects.get(object_id)
        if obj is None and create:
            obj = StorageObject(object_id)
            self._objects[object_id] = obj
            self.objects_created += 1
        return obj

    def remove(self, object_id: bytes) -> bool:
        if self._objects.pop(object_id, None) is not None:
            self.objects_removed += 1
            return True
        return False

    def __contains__(self, object_id: bytes) -> bool:
        return object_id in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def object_ids(self) -> List[bytes]:
        return list(self._objects)

    # Per-object allocation extent: large enough that a sequential stream
    # stays contiguous per file even with concurrent writers.  Deliberately
    # NOT a multiple of the array's stripe row (8 x 64 KB) so consecutive
    # extents start on different drives and concurrent streams stay out of
    # phase instead of convoying on one arm.
    ALLOC_EXTENT = (512 << 10) + (64 << 10)

    def phys_for_block(self, obj: StorageObject, block: int) -> int:
        """Physical address for a logical block, allocated on first use.

        Blocks come from per-object extents (FFS clustering): one file's
        blocks are contiguous in write order regardless of interleaving
        with other files' writes.
        """
        phys = obj.block_phys.get(block)
        if phys is None:
            if obj.alloc_remaining < BLOCK_SIZE:
                obj.alloc_next = self.allocate_phys(self.ALLOC_EXTENT)
                obj.alloc_remaining = self.ALLOC_EXTENT
            phys = obj.alloc_next
            obj.alloc_next += BLOCK_SIZE
            obj.alloc_remaining -= BLOCK_SIZE
            obj.block_phys[block] = phys
            obj.block_index[block] = len(obj.block_order)
            obj.block_order.append(block)
        return phys

    def crash(self) -> None:
        """Drop all unstable data (node power loss)."""
        for obj in self._objects.values():
            obj.discard_unstable()
