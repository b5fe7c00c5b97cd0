"""NFS V3 data types (RFC 1813): attributes, settable attributes, dir entries.

Attribute encoding is byte-faithful (84-byte fattr3) because the µproxy
patches size/time fields inside encoded replies using differential
checksumming; the field offsets exported here are part of that contract.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.rpc.xdr import Decoder, Encoder

__all__ = [
    "NF3REG",
    "NF3DIR",
    "NF3BLK",
    "NF3CHR",
    "NF3LNK",
    "NF3SOCK",
    "NF3FIFO",
    "UNSTABLE",
    "DATA_SYNC",
    "FILE_SYNC",
    "UNCHECKED",
    "GUARDED",
    "EXCLUSIVE",
    "ACCESS_READ",
    "ACCESS_LOOKUP",
    "ACCESS_MODIFY",
    "ACCESS_EXTEND",
    "ACCESS_DELETE",
    "ACCESS_EXECUTE",
    "Fattr3",
    "Sattr3",
    "DirEntry",
    "FATTR3_SIZE",
    "FATTR3_OFF_SIZE",
    "FATTR3_OFF_ATIME",
    "FATTR3_OFF_MTIME",
    "FATTR3_OFF_CTIME",
    "encode_time",
    "decode_time",
]

NF3REG = 1
NF3DIR = 2
NF3BLK = 3
NF3CHR = 4
NF3LNK = 5
NF3SOCK = 6
NF3FIFO = 7

UNSTABLE = 0
DATA_SYNC = 1
FILE_SYNC = 2

UNCHECKED = 0
GUARDED = 1
EXCLUSIVE = 2

ACCESS_READ = 0x0001
ACCESS_LOOKUP = 0x0002
ACCESS_MODIFY = 0x0004
ACCESS_EXTEND = 0x0008
ACCESS_DELETE = 0x0010
ACCESS_EXECUTE = 0x0020

# fattr3 field offsets within its 84-byte encoding.
FATTR3_SIZE = 84
FATTR3_OFF_SIZE = 20
FATTR3_OFF_ATIME = 60
FATTR3_OFF_MTIME = 68
FATTR3_OFF_CTIME = 76


# fattr3 in one layout: type mode nlink uid gid, size used, rdev (2 x u32),
# fsid fileid, then atime mtime ctime as (seconds, nanoseconds) pairs.
_FATTR3_FIELDS = "5I2Q2I2Q6I"
_FATTR3 = struct.Struct("!" + _FATTR3_FIELDS)
# post_op_attr with attributes: TRUE discriminant + fattr3.
_POST_OP_ATTR = struct.Struct("!I" + _FATTR3_FIELDS)
# wcc_data with no pre-op attributes and post-op attributes present.
_WCC_DATA = struct.Struct("!2I" + _FATTR3_FIELDS)
assert _FATTR3.size == FATTR3_SIZE
# nfstime3, or the two FALSE discriminants of an empty wcc_data.
_U32_PAIR = struct.Struct("!2I")
# wcc_attr: size, mtime, ctime.
_WCC_ATTR = struct.Struct("!Q4I")


def _time_fields(seconds: float) -> Tuple[int, int]:
    """nfstime3 (seconds, nanoseconds) of a float time."""
    whole = int(seconds)
    nanos = int(round((seconds - whole) * 1e9))
    if nanos >= 10**9:
        whole += 1
        nanos -= 10**9
    return whole & 0xFFFFFFFF, nanos


def encode_time(enc: Encoder, seconds: float) -> None:
    enc.pack(_U32_PAIR, *_time_fields(seconds))


def decode_time(dec: Decoder) -> float:
    whole, nanos = dec.unpack(_U32_PAIR)
    return whole + nanos / 1e9


@dataclass
class Fattr3:
    """File attributes.  Times are float seconds since the epoch."""

    ftype: int = NF3REG
    mode: int = 0o644
    nlink: int = 1
    uid: int = 0
    gid: int = 0
    size: int = 0
    used: int = 0
    fsid: int = 0
    fileid: int = 0
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0

    def _wire_fields(self) -> Tuple[int, ...]:
        """Field values in fattr3 wire order (the ``_FATTR3_FIELDS`` layout)."""
        return (
            self.ftype, self.mode, self.nlink, self.uid, self.gid,
            self.size, self.used, 0, 0, self.fsid, self.fileid,
            *_time_fields(self.atime), *_time_fields(self.mtime),
            *_time_fields(self.ctime),
        )

    @classmethod
    def _from_wire(cls, values: Tuple[int, ...]) -> "Fattr3":
        (ftype, mode, nlink, uid, gid, size, used, _, _, fsid, fileid,
         asec, ansec, msec, mnsec, csec, cnsec) = values
        return cls(
            ftype, mode, nlink, uid, gid, size, used, fsid, fileid,
            asec + ansec / 1e9, msec + mnsec / 1e9, csec + cnsec / 1e9,
        )

    def encode(self, enc: Encoder) -> None:
        enc.pack(_FATTR3, *self._wire_fields())

    @classmethod
    def decode(cls, dec: Decoder) -> "Fattr3":
        return cls._from_wire(dec.unpack(_FATTR3))

    def copy(self, **changes) -> "Fattr3":
        return replace(self, **changes)


def encode_post_op_attr(enc: Encoder, attr: Optional[Fattr3]) -> int:
    """Encode post_op_attr; returns the byte offset of the fattr3 body
    within the encoder (or -1 if absent) for in-place patching."""
    if attr is None:
        enc.boolean(False)
        return -1
    offset = enc.position + 4
    enc.pack(_POST_OP_ATTR, 1, *attr._wire_fields())
    return offset


def decode_post_op_attr(dec: Decoder) -> Tuple[Optional[Fattr3], int]:
    """Decode post_op_attr; returns (attr, offset-of-fattr3-or-minus-1)."""
    if not dec.boolean():
        return None, -1
    offset = dec.offset
    return Fattr3._from_wire(dec.unpack(_FATTR3)), offset


def encode_wcc_data(enc: Encoder, post: Optional[Fattr3]) -> int:
    """wcc_data with absent pre-op attributes; returns the fattr3 offset
    (or -1 if ``post`` is None)."""
    if post is None:
        enc.pack(_U32_PAIR, 0, 0)
        return -1
    offset = enc.position + 8
    enc.pack(_WCC_DATA, 0, 1, *post._wire_fields())
    return offset


def decode_wcc_data(dec: Decoder) -> Tuple[Optional[Fattr3], int]:
    """Decode wcc_data; returns (post-op attr, its fattr3 offset or -1)."""
    if dec.boolean():  # pre_op_attr present: size + mtime + ctime
        dec.unpack(_WCC_ATTR)
    return decode_post_op_attr(dec)


# Sattr3 time disposition.
DONT_CHANGE = 0
SET_TO_SERVER_TIME = 1
SET_TO_CLIENT_TIME = 2


@dataclass
class Sattr3:
    """Settable attributes: each field is None (don't change) or a value.

    ``atime``/``mtime`` may also be the sentinel ``"server"`` meaning "set to
    the server's current time" (SET_TO_SERVER_TIME).
    """

    mode: Optional[int] = None
    uid: Optional[int] = None
    gid: Optional[int] = None
    size: Optional[int] = None
    atime: object = None
    mtime: object = None

    def encode(self, enc: Encoder) -> None:
        for value in (self.mode, self.uid, self.gid):
            if value is None:
                enc.boolean(False)
            else:
                enc.boolean(True)
                enc.u32(value)
        if self.size is None:
            enc.boolean(False)
        else:
            enc.boolean(True)
            enc.u64(self.size)
        for value in (self.atime, self.mtime):
            if value is None:
                enc.u32(DONT_CHANGE)
            elif value == "server":
                enc.u32(SET_TO_SERVER_TIME)
            else:
                enc.u32(SET_TO_CLIENT_TIME)
                encode_time(enc, value)

    @classmethod
    def decode(cls, dec: Decoder) -> "Sattr3":
        mode = dec.u32() if dec.boolean() else None
        uid = dec.u32() if dec.boolean() else None
        gid = dec.u32() if dec.boolean() else None
        size = dec.u64() if dec.boolean() else None

        def time_field():
            how = dec.u32()
            if how == DONT_CHANGE:
                return None
            if how == SET_TO_SERVER_TIME:
                return "server"
            return decode_time(dec)

        return cls(mode, uid, gid, size, time_field(), time_field())

    def is_truncation(self) -> bool:
        return self.size is not None


@dataclass
class DirEntry:
    """One READDIR entry."""

    fileid: int
    name: str
    cookie: int
    # READDIRPLUS extras:
    attr: Optional[Fattr3] = None
    fh: Optional[bytes] = None
