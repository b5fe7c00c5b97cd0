"""ONC RPC v2 (RFC 5531) message headers.

Calls carry AUTH_SYS credentials with a variable-length machine name and
group list — one of the variable-length fields the paper blames for the
µproxy's decode cost, so they are encoded for real here.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional

from .xdr import Decoder, Encoder, XdrError

__all__ = [
    "CALL",
    "REPLY",
    "AUTH_NONE",
    "AUTH_SYS",
    "MSG_ACCEPTED",
    "MSG_DENIED",
    "SUCCESS",
    "PROG_UNAVAIL",
    "PROC_UNAVAIL",
    "GARBAGE_ARGS",
    "Credential",
    "CallHeader",
    "ReplyHeader",
]

CALL = 0
REPLY = 1

AUTH_NONE = 0
AUTH_SYS = 1

MSG_ACCEPTED = 0
MSG_DENIED = 1

SUCCESS = 0
PROG_UNAVAIL = 1
PROG_MISMATCH = 2
PROC_UNAVAIL = 3
GARBAGE_ARGS = 4

RPC_VERSION = 2


# xid, msg_type, rpcvers, prog, vers, proc
_CALL_HEAD = struct.Struct("!6I")
# xid, msg_type, reply_stat, verifier flavor, verifier length, accept_stat
_REPLY_HEAD = struct.Struct("!6I")
# opaque_auth: flavor, body length
_AUTH = struct.Struct("!2I")
# AUTH_SYS flavor, body length, then the body's stamp and machine-name length
_AUTH_SYS_HEAD = struct.Struct("!4I")
_UID_GID = struct.Struct("!2I")

_AUTH_MAX = 400


@dataclass
class Credential:
    """AUTH_SYS credential body (RFC 5531 appendix A)."""

    machine: str = "client"
    uid: int = 0
    gid: int = 0
    gids: List[int] = field(default_factory=list)

    def encode(self, enc: Encoder) -> None:
        machine = self.machine.encode("utf-8")
        # stamp, name length, name + padding, uid, gid, gid count, gids
        body_length = 20 + len(machine) + (-len(machine) & 3) + 4 * len(self.gids)
        enc.pack(_AUTH_SYS_HEAD, AUTH_SYS, body_length, 0, len(machine))
        enc.opaque_fixed(machine)
        enc.pack(_UID_GID, self.uid, self.gid)
        enc.array(self.gids, Encoder.u32)

    @classmethod
    def decode(cls, dec: Decoder) -> Optional["Credential"]:
        flavor, length = dec.unpack(_AUTH)
        body = _auth_body(dec, length)
        if flavor == AUTH_NONE:
            return None
        if flavor != AUTH_SYS:
            raise XdrError(f"unsupported auth flavor: {flavor}")
        inner = Decoder(body, 4)  # past the stamp
        machine = inner.string(255)
        uid, gid = inner.unpack(_UID_GID)
        gids = inner.array(Decoder.u32)
        return cls(machine, uid, gid, gids)


def _auth_body(dec: Decoder, length: int) -> bytes:
    """Consume the ``length``-byte body of an opaque_auth."""
    if length > _AUTH_MAX:
        raise XdrError(f"opaque length {length} exceeds max {_AUTH_MAX}")
    return dec.opaque_fixed(length)


@dataclass
class CallHeader:
    """An RPC call header; arguments follow it in the same buffer."""

    xid: int
    prog: int
    vers: int
    proc: int
    cred: Optional[Credential] = None

    def encode(self) -> Encoder:
        enc = Encoder()
        enc.pack(
            _CALL_HEAD, self.xid, CALL, RPC_VERSION,
            self.prog, self.vers, self.proc,
        )
        if self.cred is None:
            enc.pack(_AUTH, AUTH_NONE, 0)
        else:
            self.cred.encode(enc)
        enc.pack(_AUTH, AUTH_NONE, 0)  # null verifier
        return enc

    @classmethod
    def decode(cls, dec: Decoder) -> "CallHeader":
        xid, msg_type, rpcvers, prog, vers, proc = dec.unpack(_CALL_HEAD)
        if msg_type != CALL:
            raise XdrError(f"expected CALL, got msg_type={msg_type}")
        if rpcvers != RPC_VERSION:
            raise XdrError(f"bad RPC version: {rpcvers}")
        cred = Credential.decode(dec)
        _auth_body(dec, dec.unpack(_AUTH)[1])  # verifier
        return cls(xid, prog, vers, proc, cred)


@dataclass
class ReplyHeader:
    """An accepted RPC reply header; results follow it in the same buffer."""

    xid: int
    accept_stat: int = SUCCESS

    def encode(self) -> Encoder:
        return Encoder().pack(
            _REPLY_HEAD, self.xid, REPLY, MSG_ACCEPTED, AUTH_NONE, 0,
            self.accept_stat,
        )

    @classmethod
    def decode(cls, dec: Decoder) -> "ReplyHeader":
        start = dec.offset
        xid, msg_type, reply_stat, _, verf_length, accept_stat = dec.unpack(
            _REPLY_HEAD
        )
        if msg_type != REPLY:
            raise XdrError(f"expected REPLY, got msg_type={msg_type}")
        if reply_stat != MSG_ACCEPTED:
            raise XdrError(f"RPC message denied: {reply_stat}")
        if verf_length:
            # A non-empty verifier sits where the fused layout expected
            # accept_stat: step back and read the variable-length form.
            dec.offset = start + 20
            _auth_body(dec, verf_length)
            accept_stat = dec.u32()
        return cls(xid, accept_stat)
