"""XDR (RFC 4506) encoding — the wire format under ONC RPC and NFS.

Real byte-level encoding matters here: the µproxy locates and rewrites
fields inside these buffers, and the paper attributes most of its CPU cost
to decoding the variable-length RPC/NFS headers (Table 3).

Fixed layouts (an RPC call header, an fattr3) are precompiled
:class:`struct.Struct` objects and cross the codec in one ``pack``/``unpack``
call each; the per-field methods remain for the variable-length parts.
"""

from __future__ import annotations

import struct
from typing import Callable, Sequence, Tuple

__all__ = ["Encoder", "Decoder", "XdrError"]

U32 = struct.Struct("!I")
I32 = struct.Struct("!i")
U64 = struct.Struct("!Q")
I64 = struct.Struct("!q")

# Zero padding that rounds a length up to a multiple of four, by length % 4.
_PADDING = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")


class XdrError(Exception):
    """Malformed or truncated XDR data."""


class Encoder:
    """Append-only XDR encoder."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def position(self) -> int:
        """Bytes encoded so far (offset of the next field)."""
        return len(self._buf)

    def pack(self, layout: struct.Struct, *values) -> "Encoder":
        """Append one fixed layout; out-of-range values raise XdrError."""
        try:
            self._buf += layout.pack(*values)
        except struct.error as exc:
            raise XdrError(f"cannot encode {layout.format}: {exc}") from None
        return self

    def u32(self, value: int) -> "Encoder":
        return self.pack(U32, value)

    def i32(self, value: int) -> "Encoder":
        return self.pack(I32, value)

    def u64(self, value: int) -> "Encoder":
        return self.pack(U64, value)

    def i64(self, value: int) -> "Encoder":
        return self.pack(I64, value)

    def boolean(self, value: bool) -> "Encoder":
        return self.pack(U32, 1 if value else 0)

    def opaque_fixed(self, data: bytes) -> "Encoder":
        self._buf += data
        self._buf += _PADDING[len(data) & 3]
        return self

    def opaque_var(self, data: bytes) -> "Encoder":
        self._buf += U32.pack(len(data))
        return self.opaque_fixed(data)

    def string(self, text: str) -> "Encoder":
        return self.opaque_var(text.encode("utf-8"))

    def array(self, items: Sequence, encode_item: Callable) -> "Encoder":
        self.u32(len(items))
        for item in items:
            encode_item(self, item)
        return self

    def to_bytes(self) -> bytes:
        return bytes(self._buf)


class Decoder:
    """Cursor-based XDR decoder over a bytes buffer."""

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.offset = offset

    def _truncated(self, count: int) -> XdrError:
        return XdrError(
            f"truncated XDR: need {count} bytes at offset {self.offset}, "
            f"have {len(self.data) - self.offset}"
        )

    def unpack(self, layout: struct.Struct) -> Tuple:
        """Consume one fixed layout; short input raises XdrError."""
        offset = self.offset
        try:
            values = layout.unpack_from(self.data, offset)
        except struct.error:
            raise self._truncated(layout.size) from None
        self.offset = offset + layout.size
        return values

    def u32(self) -> int:
        offset = self.offset
        try:
            value = U32.unpack_from(self.data, offset)[0]
        except struct.error:
            raise self._truncated(4) from None
        self.offset = offset + 4
        return value

    def peek_u32(self) -> int:
        """The next u32, without consuming it."""
        try:
            return U32.unpack_from(self.data, self.offset)[0]
        except struct.error:
            raise self._truncated(4) from None

    def i32(self) -> int:
        return self.unpack(I32)[0]

    def u64(self) -> int:
        return self.unpack(U64)[0]

    def i64(self) -> int:
        return self.unpack(I64)[0]

    def boolean(self) -> bool:
        value = self.u32()
        if value not in (0, 1):
            raise XdrError(f"bad boolean discriminant: {value}")
        return bool(value)

    def opaque_fixed(self, length: int) -> bytes:
        start = self.offset
        end = start + length
        padded = end + (-length & 3)
        if padded > len(self.data):
            raise self._truncated(padded - start)
        self.offset = padded
        return self.data[start:end]

    def opaque_var(self, max_length: int = 0xFFFFFFFF) -> bytes:
        length = self.u32()
        if length > max_length:
            raise XdrError(f"opaque length {length} exceeds max {max_length}")
        return self.opaque_fixed(length)

    def string(self, max_length: int = 0xFFFFFFFF) -> str:
        return self.opaque_var(max_length).decode("utf-8")

    def array(self, decode_item: Callable) -> list:
        count = self.u32()
        if count > 1 << 20:
            raise XdrError(f"implausible array length: {count}")
        return [decode_item(self) for _ in range(count)]

    @property
    def remaining(self) -> int:
        return len(self.data) - self.offset

    def done(self) -> bool:
        return self.offset >= len(self.data)
