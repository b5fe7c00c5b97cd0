"""NFS V3 procedure codec (RFC 1813).

Argument encoders/decoders produce the bytes that follow the RPC call
header; result classes encode/decode the bytes that follow the RPC reply
header.  Bulk data (READ results, WRITE arguments) travels in the packet
*body*, after these headers — matching the header-splitting NICs of the
paper's testbed — and conveniently NFS V3 puts opaque file data last in
both messages.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

from repro.rpc.xdr import Decoder, Encoder, XdrError
from .types import (
    DirEntry,
    Fattr3,
    Sattr3,
    decode_post_op_attr,
    decode_time,
    decode_wcc_data,
    encode_post_op_attr,
    encode_time,
    encode_wcc_data,
)

__all__ = [
    "NFS_PROGRAM",
    "NFS_V3",
    "PROC_NULL",
    "PROC_GETATTR",
    "PROC_SETATTR",
    "PROC_LOOKUP",
    "PROC_ACCESS",
    "PROC_READLINK",
    "PROC_READ",
    "PROC_WRITE",
    "PROC_CREATE",
    "PROC_MKDIR",
    "PROC_SYMLINK",
    "PROC_MKNOD",
    "PROC_REMOVE",
    "PROC_RMDIR",
    "PROC_RENAME",
    "PROC_LINK",
    "PROC_READDIR",
    "PROC_READDIRPLUS",
    "PROC_FSSTAT",
    "PROC_FSINFO",
    "PROC_PATHCONF",
    "PROC_COMMIT",
    "PROC_NAMES",
    "NAME_OPS",
    "IO_OPS",
]

NFS_PROGRAM = 100003
NFS_V3 = 3

PROC_NULL = 0
PROC_GETATTR = 1
PROC_SETATTR = 2
PROC_LOOKUP = 3
PROC_ACCESS = 4
PROC_READLINK = 5
PROC_READ = 6
PROC_WRITE = 7
PROC_CREATE = 8
PROC_MKDIR = 9
PROC_SYMLINK = 10
PROC_MKNOD = 11
PROC_REMOVE = 12
PROC_RMDIR = 13
PROC_RENAME = 14
PROC_LINK = 15
PROC_READDIR = 16
PROC_READDIRPLUS = 17
PROC_FSSTAT = 18
PROC_FSINFO = 19
PROC_PATHCONF = 20
PROC_COMMIT = 21

PROC_NAMES = {
    PROC_NULL: "null",
    PROC_GETATTR: "getattr",
    PROC_SETATTR: "setattr",
    PROC_LOOKUP: "lookup",
    PROC_ACCESS: "access",
    PROC_READLINK: "readlink",
    PROC_READ: "read",
    PROC_WRITE: "write",
    PROC_CREATE: "create",
    PROC_MKDIR: "mkdir",
    PROC_SYMLINK: "symlink",
    PROC_MKNOD: "mknod",
    PROC_REMOVE: "remove",
    PROC_RMDIR: "rmdir",
    PROC_RENAME: "rename",
    PROC_LINK: "link",
    PROC_READDIR: "readdir",
    PROC_READDIRPLUS: "readdirplus",
    PROC_FSSTAT: "fsstat",
    PROC_FSINFO: "fsinfo",
    PROC_PATHCONF: "pathconf",
    PROC_COMMIT: "commit",
}

# The three functional request classes of Figure 1.
NAME_OPS = {
    PROC_LOOKUP, PROC_ACCESS, PROC_READLINK, PROC_CREATE, PROC_MKDIR,
    PROC_SYMLINK, PROC_MKNOD, PROC_REMOVE, PROC_RMDIR, PROC_RENAME,
    PROC_LINK, PROC_READDIR, PROC_READDIRPLUS, PROC_GETATTR, PROC_SETATTR,
    PROC_FSSTAT, PROC_FSINFO, PROC_PATHCONF,
}
IO_OPS = {PROC_READ, PROC_WRITE, PROC_COMMIT}

FH_MAX = 64

# Fixed tails that follow a file handle or the status and attributes.
_OFFSET_COUNT = struct.Struct("!QI")  # READ and COMMIT arguments
_WRITE_ARGS_TAIL = struct.Struct("!Q3I")  # offset count stable, data length
_READ_RES_TAIL = struct.Struct("!3I")  # count eof, data length
_WRITE_RES_TAIL = struct.Struct("!2IQ")  # count committed verf
_READDIR_ARGS_TAIL = struct.Struct("!2QI")  # cookie cookieverf count
_READDIRPLUS_ARGS_TAIL = struct.Struct("!2Q2I")  # ... dircount maxcount
_ENTRY_HEAD = struct.Struct("!IQ")  # value_follows fileid


def _enc_fh(enc: Encoder, fh: bytes) -> None:
    enc.opaque_var(fh)


def _dec_fh(dec: Decoder) -> bytes:
    return dec.opaque_var(FH_MAX)


# ---------------------------------------------------------------------------
# Argument codecs
# ---------------------------------------------------------------------------


class DirOpArgs(NamedTuple):
    dir_fh: bytes
    name: str


def encode_fh_args(fh: bytes) -> bytes:
    """GETATTR, READLINK, FSSTAT, FSINFO, PATHCONF: a bare file handle."""
    enc = Encoder()
    _enc_fh(enc, fh)
    return enc.to_bytes()


def decode_fh_args(dec: Decoder) -> bytes:
    return _dec_fh(dec)


def encode_setattr_args(fh: bytes, sattr: Sattr3, guard_ctime: Optional[float] = None) -> bytes:
    enc = Encoder()
    _enc_fh(enc, fh)
    sattr.encode(enc)
    if guard_ctime is None:
        enc.boolean(False)
    else:
        enc.boolean(True)
        encode_time(enc, guard_ctime)
    return enc.to_bytes()


class SetattrArgs(NamedTuple):
    fh: bytes
    sattr: Sattr3
    guard_ctime: Optional[float]


def decode_setattr_args(dec: Decoder) -> SetattrArgs:
    fh = _dec_fh(dec)
    sattr = Sattr3.decode(dec)
    guard = decode_time(dec) if dec.boolean() else None
    return SetattrArgs(fh, sattr, guard)


def encode_diropargs(dir_fh: bytes, name: str) -> bytes:
    """LOOKUP, REMOVE, RMDIR."""
    enc = Encoder()
    _enc_fh(enc, dir_fh)
    enc.string(name)
    return enc.to_bytes()


def decode_diropargs(dec: Decoder) -> DirOpArgs:
    return DirOpArgs(_dec_fh(dec), dec.string(255))


def encode_access_args(fh: bytes, access: int) -> bytes:
    enc = Encoder()
    _enc_fh(enc, fh)
    enc.u32(access)
    return enc.to_bytes()


class AccessArgs(NamedTuple):
    fh: bytes
    access: int


def decode_access_args(dec: Decoder) -> AccessArgs:
    return AccessArgs(_dec_fh(dec), dec.u32())


def encode_read_args(fh: bytes, offset: int, count: int) -> bytes:
    enc = Encoder()
    _enc_fh(enc, fh)
    enc.pack(_OFFSET_COUNT, offset, count)
    return enc.to_bytes()


class ReadArgs(NamedTuple):
    fh: bytes
    offset: int
    count: int


def decode_read_args(dec: Decoder) -> ReadArgs:
    return ReadArgs(_dec_fh(dec), *dec.unpack(_OFFSET_COUNT))


def encode_write_args(fh: bytes, offset: int, count: int, stable: int) -> bytes:
    """WRITE arguments; the data itself rides in the packet body."""
    enc = Encoder()
    _enc_fh(enc, fh)
    # The last field is the opaque<> length prefix of the body that follows.
    enc.pack(_WRITE_ARGS_TAIL, offset, count, stable, count)
    return enc.to_bytes()


class WriteArgs(NamedTuple):
    fh: bytes
    offset: int
    count: int
    stable: int


def decode_write_args(dec: Decoder) -> WriteArgs:
    fh = _dec_fh(dec)
    offset, count, stable, _ = dec.unpack(_WRITE_ARGS_TAIL)
    return WriteArgs(fh, offset, count, stable)


def encode_create_args(dir_fh: bytes, name: str, mode: int, sattr: Sattr3) -> bytes:
    enc = Encoder()
    _enc_fh(enc, dir_fh)
    enc.string(name)
    enc.u32(mode)
    sattr.encode(enc)  # (EXCLUSIVE verf not modeled; mode kept for shape)
    return enc.to_bytes()


class CreateArgs(NamedTuple):
    dir_fh: bytes
    name: str
    mode: int
    sattr: Sattr3


def decode_create_args(dec: Decoder) -> CreateArgs:
    return CreateArgs(_dec_fh(dec), dec.string(255), dec.u32(), Sattr3.decode(dec))


def encode_mkdir_args(dir_fh: bytes, name: str, sattr: Sattr3) -> bytes:
    enc = Encoder()
    _enc_fh(enc, dir_fh)
    enc.string(name)
    sattr.encode(enc)
    return enc.to_bytes()


class MkdirArgs(NamedTuple):
    dir_fh: bytes
    name: str
    sattr: Sattr3


def decode_mkdir_args(dec: Decoder) -> MkdirArgs:
    return MkdirArgs(_dec_fh(dec), dec.string(255), Sattr3.decode(dec))


def encode_symlink_args(dir_fh: bytes, name: str, sattr: Sattr3, path: str) -> bytes:
    enc = Encoder()
    _enc_fh(enc, dir_fh)
    enc.string(name)
    sattr.encode(enc)
    enc.string(path)
    return enc.to_bytes()


class SymlinkArgs(NamedTuple):
    dir_fh: bytes
    name: str
    sattr: Sattr3
    path: str


def decode_symlink_args(dec: Decoder) -> SymlinkArgs:
    return SymlinkArgs(
        _dec_fh(dec), dec.string(255), Sattr3.decode(dec), dec.string(1024)
    )


def encode_rename_args(from_dir: bytes, from_name: str, to_dir: bytes, to_name: str) -> bytes:
    enc = Encoder()
    _enc_fh(enc, from_dir)
    enc.string(from_name)
    _enc_fh(enc, to_dir)
    enc.string(to_name)
    return enc.to_bytes()


class RenameArgs(NamedTuple):
    from_dir: bytes
    from_name: str
    to_dir: bytes
    to_name: str


def decode_rename_args(dec: Decoder) -> RenameArgs:
    return RenameArgs(
        _dec_fh(dec), dec.string(255), _dec_fh(dec), dec.string(255)
    )


def encode_link_args(fh: bytes, dir_fh: bytes, name: str) -> bytes:
    enc = Encoder()
    _enc_fh(enc, fh)
    _enc_fh(enc, dir_fh)
    enc.string(name)
    return enc.to_bytes()


class LinkArgs(NamedTuple):
    fh: bytes
    dir_fh: bytes
    name: str


def decode_link_args(dec: Decoder) -> LinkArgs:
    return LinkArgs(_dec_fh(dec), _dec_fh(dec), dec.string(255))


def encode_readdir_args(
    dir_fh: bytes, cookie: int, cookieverf: int, count: int
) -> bytes:
    enc = Encoder()
    _enc_fh(enc, dir_fh)
    enc.pack(_READDIR_ARGS_TAIL, cookie, cookieverf, count)
    return enc.to_bytes()


class ReaddirArgs(NamedTuple):
    dir_fh: bytes
    cookie: int
    cookieverf: int
    count: int


def decode_readdir_args(dec: Decoder) -> ReaddirArgs:
    return ReaddirArgs(_dec_fh(dec), *dec.unpack(_READDIR_ARGS_TAIL))


def encode_readdirplus_args(
    dir_fh: bytes, cookie: int, cookieverf: int, dircount: int, maxcount: int
) -> bytes:
    enc = Encoder()
    _enc_fh(enc, dir_fh)
    enc.pack(_READDIRPLUS_ARGS_TAIL, cookie, cookieverf, dircount, maxcount)
    return enc.to_bytes()


class ReaddirplusArgs(NamedTuple):
    dir_fh: bytes
    cookie: int
    cookieverf: int
    dircount: int
    maxcount: int


def decode_readdirplus_args(dec: Decoder) -> ReaddirplusArgs:
    return ReaddirplusArgs(_dec_fh(dec), *dec.unpack(_READDIRPLUS_ARGS_TAIL))


def encode_commit_args(fh: bytes, offset: int, count: int) -> bytes:
    enc = Encoder()
    _enc_fh(enc, fh)
    enc.pack(_OFFSET_COUNT, offset, count)
    return enc.to_bytes()


class CommitArgs(NamedTuple):
    fh: bytes
    offset: int
    count: int


def decode_commit_args(dec: Decoder) -> CommitArgs:
    return CommitArgs(_dec_fh(dec), *dec.unpack(_OFFSET_COUNT))


# ---------------------------------------------------------------------------
# Result codecs
# ---------------------------------------------------------------------------


@dataclass
class GetattrRes:
    status: int
    attr: Optional[Fattr3] = None
    attr_offset: int = field(default=-1, compare=False)

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        if self.status == 0:
            self.attr_offset = enc.position
            self.attr.encode(enc)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "GetattrRes":
        status = dec.u32()
        attr = None
        offset = -1
        if status == 0:
            offset = dec.offset
            attr = Fattr3.decode(dec)
        return cls(status, attr, offset)


@dataclass
class AttrOnlyRes:
    """SETATTR and REMOVE/RMDIR results: status + wcc/post-op attributes."""

    status: int
    attr: Optional[Fattr3] = None
    attr_offset: int = field(default=-1, compare=False)

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        self.attr_offset = encode_wcc_data(enc, self.attr)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "AttrOnlyRes":
        status = dec.u32()
        attr, offset = decode_wcc_data(dec)
        return cls(status, attr, offset)


SetattrRes = AttrOnlyRes
RemoveRes = AttrOnlyRes


@dataclass
class LookupRes:
    status: int
    fh: Optional[bytes] = None
    attr: Optional[Fattr3] = None
    dir_attr: Optional[Fattr3] = None
    attr_offset: int = field(default=-1, compare=False)

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        if self.status == 0:
            _enc_fh(enc, self.fh)
            self.attr_offset = encode_post_op_attr(enc, self.attr)
        encode_post_op_attr(enc, self.dir_attr)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "LookupRes":
        status = dec.u32()
        fh = attr = None
        offset = -1
        if status == 0:
            fh = _dec_fh(dec)
            attr, offset = decode_post_op_attr(dec)
        dir_attr, _ = decode_post_op_attr(dec)
        return cls(status, fh, attr, dir_attr, offset)


@dataclass
class AccessRes:
    status: int
    attr: Optional[Fattr3] = None
    access: int = 0

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        encode_post_op_attr(enc, self.attr)
        if self.status == 0:
            enc.u32(self.access)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "AccessRes":
        status = dec.u32()
        attr, _ = decode_post_op_attr(dec)
        access = dec.u32() if status == 0 else 0
        return cls(status, attr, access)


@dataclass
class ReadlinkRes:
    status: int
    attr: Optional[Fattr3] = None
    path: str = ""

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        encode_post_op_attr(enc, self.attr)
        if self.status == 0:
            enc.string(self.path)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "ReadlinkRes":
        status = dec.u32()
        attr, _ = decode_post_op_attr(dec)
        path = dec.string(1024) if status == 0 else ""
        return cls(status, attr, path)


@dataclass
class ReadRes:
    """READ result header; file data rides in the packet body."""

    status: int
    attr: Optional[Fattr3] = None
    count: int = 0
    eof: bool = False
    attr_offset: int = field(default=-1, compare=False)

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        self.attr_offset = encode_post_op_attr(enc, self.attr)
        if self.status == 0:
            # The last field is the opaque<> length prefix of the body.
            enc.pack(_READ_RES_TAIL, self.count, 1 if self.eof else 0, self.count)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "ReadRes":
        status = dec.u32()
        attr, offset = decode_post_op_attr(dec)
        count = eof = 0
        if status == 0:
            count, eof, _ = dec.unpack(_READ_RES_TAIL)
            if eof not in (0, 1):
                raise XdrError(f"bad boolean discriminant: {eof}")
        return cls(status, attr, count, bool(eof), offset)


@dataclass
class WriteRes:
    status: int
    attr: Optional[Fattr3] = None
    count: int = 0
    committed: int = 0
    verf: int = 0
    attr_offset: int = field(default=-1, compare=False)

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        self.attr_offset = encode_wcc_data(enc, self.attr)
        if self.status == 0:
            enc.pack(_WRITE_RES_TAIL, self.count, self.committed, self.verf)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "WriteRes":
        status = dec.u32()
        attr, offset = decode_wcc_data(dec)
        count = committed = verf = 0
        if status == 0:
            count, committed, verf = dec.unpack(_WRITE_RES_TAIL)
        return cls(status, attr, count, committed, verf, offset)


@dataclass
class CreateRes:
    """CREATE, MKDIR, SYMLINK results."""

    status: int
    fh: Optional[bytes] = None
    attr: Optional[Fattr3] = None
    dir_attr: Optional[Fattr3] = None

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        if self.status == 0:
            if self.fh is None:
                enc.boolean(False)
            else:
                enc.boolean(True)
                _enc_fh(enc, self.fh)
            encode_post_op_attr(enc, self.attr)
        encode_wcc_data(enc, self.dir_attr)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "CreateRes":
        status = dec.u32()
        fh = attr = None
        if status == 0:
            if dec.boolean():
                fh = _dec_fh(dec)
            attr, _ = decode_post_op_attr(dec)
        dir_attr, _ = decode_wcc_data(dec)
        return cls(status, fh, attr, dir_attr)


MkdirRes = CreateRes
SymlinkRes = CreateRes


@dataclass
class RenameRes:
    status: int
    from_dir_attr: Optional[Fattr3] = None
    to_dir_attr: Optional[Fattr3] = None

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        encode_wcc_data(enc, self.from_dir_attr)
        encode_wcc_data(enc, self.to_dir_attr)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "RenameRes":
        status = dec.u32()
        from_attr, _ = decode_wcc_data(dec)
        to_attr, _ = decode_wcc_data(dec)
        return cls(status, from_attr, to_attr)


@dataclass
class LinkRes:
    status: int
    file_attr: Optional[Fattr3] = None
    dir_attr: Optional[Fattr3] = None

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        encode_post_op_attr(enc, self.file_attr)
        encode_wcc_data(enc, self.dir_attr)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "LinkRes":
        status = dec.u32()
        file_attr, _ = decode_post_op_attr(dec)
        dir_attr, _ = decode_wcc_data(dec)
        return cls(status, file_attr, dir_attr)


@dataclass
class ReaddirRes:
    """READDIR / READDIRPLUS result (``plus`` selects the wire format)."""

    status: int
    dir_attr: Optional[Fattr3] = None
    cookieverf: int = 0
    entries: List[DirEntry] = field(default_factory=list)
    eof: bool = True
    plus: bool = False

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        encode_post_op_attr(enc, self.dir_attr)
        if self.status != 0:
            return enc.to_bytes()
        enc.u64(self.cookieverf)
        for entry in self.entries:
            enc.pack(_ENTRY_HEAD, 1, entry.fileid)
            enc.string(entry.name)
            enc.u64(entry.cookie)
            if self.plus:
                encode_post_op_attr(enc, entry.attr)
                if entry.fh is None:
                    enc.boolean(False)
                else:
                    enc.boolean(True)
                    _enc_fh(enc, entry.fh)
        enc.boolean(False)
        enc.boolean(self.eof)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder, plus: bool = False) -> "ReaddirRes":
        status = dec.u32()
        dir_attr, _ = decode_post_op_attr(dec)
        if status != 0:
            return cls(status, dir_attr)
        cookieverf = dec.u64()
        entries = []
        while dec.boolean():
            fileid = dec.u64()
            name = dec.string(255)
            cookie = dec.u64()
            attr = fh = None
            if plus:
                attr, _ = decode_post_op_attr(dec)
                if dec.boolean():
                    fh = _dec_fh(dec)
            entries.append(DirEntry(fileid, name, cookie, attr, fh))
        eof = dec.boolean()
        return cls(status, dir_attr, cookieverf, entries, eof, plus)


@dataclass
class FsstatRes:
    status: int
    attr: Optional[Fattr3] = None
    tbytes: int = 0
    fbytes: int = 0
    abytes: int = 0
    tfiles: int = 0
    ffiles: int = 0
    afiles: int = 0

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        encode_post_op_attr(enc, self.attr)
        if self.status == 0:
            for value in (
                self.tbytes, self.fbytes, self.abytes,
                self.tfiles, self.ffiles, self.afiles,
            ):
                enc.u64(value)
            enc.u32(0)  # invarsec
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "FsstatRes":
        status = dec.u32()
        attr, _ = decode_post_op_attr(dec)
        values = [0] * 6
        if status == 0:
            values = [dec.u64() for _ in range(6)]
            dec.u32()
        return cls(status, attr, *values)


@dataclass
class FsinfoRes:
    status: int
    attr: Optional[Fattr3] = None
    rtmax: int = 32768
    wtmax: int = 32768
    dtpref: int = 8192
    maxfilesize: int = 1 << 62

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        encode_post_op_attr(enc, self.attr)
        if self.status == 0:
            enc.u32(self.rtmax)
            enc.u32(self.rtmax)  # rtpref
            enc.u32(512)  # rtmult
            enc.u32(self.wtmax)
            enc.u32(self.wtmax)  # wtpref
            enc.u32(512)  # wtmult
            enc.u32(self.dtpref)
            enc.u64(self.maxfilesize)
            enc.u32(0)
            enc.u32(1)  # time_delta: 1ns
            enc.u32(0x1B)  # properties: LINK|SYMLINK|HOMOGENEOUS|CANSETTIME
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "FsinfoRes":
        status = dec.u32()
        attr, _ = decode_post_op_attr(dec)
        if status != 0:
            return cls(status, attr)
        rtmax = dec.u32()
        dec.u32()
        dec.u32()
        wtmax = dec.u32()
        dec.u32()
        dec.u32()
        dtpref = dec.u32()
        maxfilesize = dec.u64()
        dec.u32()
        dec.u32()
        dec.u32()
        return cls(status, attr, rtmax, wtmax, dtpref, maxfilesize)


@dataclass
class PathconfRes:
    status: int
    attr: Optional[Fattr3] = None
    linkmax: int = 32767
    name_max: int = 255

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        encode_post_op_attr(enc, self.attr)
        if self.status == 0:
            enc.u32(self.linkmax)
            enc.u32(self.name_max)
            enc.boolean(True)  # no_trunc
            enc.boolean(True)  # chown_restricted
            enc.boolean(False)  # case_insensitive
            enc.boolean(True)  # case_preserving
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "PathconfRes":
        status = dec.u32()
        attr, _ = decode_post_op_attr(dec)
        if status != 0:
            return cls(status, attr)
        linkmax = dec.u32()
        name_max = dec.u32()
        for _ in range(4):
            dec.boolean()
        return cls(status, attr, linkmax, name_max)


@dataclass
class CommitRes:
    status: int
    attr: Optional[Fattr3] = None
    verf: int = 0

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        encode_wcc_data(enc, self.attr)
        if self.status == 0:
            enc.u64(self.verf)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "CommitRes":
        status = dec.u32()
        attr, _ = decode_wcc_data(dec)
        verf = dec.u64() if status == 0 else 0
        return cls(status, attr, verf)
