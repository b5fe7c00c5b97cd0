"""Golden wire bytes for the fixed RPC/NFS layouts.

Round-trip tests cannot see a field-order slip that an encoder and its
decoder share, so these pin the exact bytes.  The hex below was produced by
the original field-at-a-time encoder (one ``u32``/``u64`` append per field),
which follows RFC 5531 and RFC 1813 field by field.
"""

import pytest

from repro.nfs import proto
from repro.nfs.fhandle import FHandle
from repro.nfs.types import NF3DIR, NF3REG, Fattr3
from repro.rpc.messages import (
    PROG_UNAVAIL,
    CallHeader,
    Credential,
    ReplyHeader,
)
from repro.rpc.xdr import Decoder, Encoder, XdrError


def _fh(fileid):
    return FHandle(1, NF3REG, 0, fileid, 1, bytes(range(16))).pack()


CRED = Credential("client7", uid=1001, gid=100, gids=[100, 2000])
# 0.9999999999 s rounds to 10**9 ns, which must carry into the seconds.
ATTR = Fattr3(
    NF3REG, 0o644, 1, 1001, 100, 70000, 73728, 1, (3 << 40) | 17,
    1.9999999999, 1000.5, 123456.000000001,
)
DIR_ATTR = Fattr3(NF3DIR, 0o755, 3, 0, 0, 512, 512, 1, 1, 10.25, 20.5, 30.75)

FH_HEX = "0000002051ce0001010000000000000000630001000102030405060708090a0b0c0d0e0f"
FATTR3_HEX = (
    "00000001000001a400000001000003e900000064"  # type mode nlink uid gid
    "0000000000011170" "0000000000012000"  # size used
    "0000000000000000"  # rdev
    "0000000000000001" "0000030000000011"  # fsid fileid
    "0000000200000000" "000003e81dcd6500" "0001e24000000001"  # a/m/ctime
)
DIR_FATTR3_HEX = (
    "00000002000001ed000000030000000000000000"
    "0000000000000200" "0000000000000200" "0000000000000000"
    "0000000000000001" "0000000000000001"
    "0000000a0ee6b280" "000000141dcd6500" "0000001e2cb41780"
)

GOLDEN = {
    "call": (
        lambda: CallHeader(0x12345678, 100003, 3, 6, CRED).encode().to_bytes(),
        "12345678" "00000000" "00000002" "000186a3" "00000003" "00000006"
        "00000001" "00000024"  # AUTH_SYS, body length 36
        "00000000" "00000007" "636c69656e743700"  # stamp, "client7" + pad
        "000003e9" "00000064" "00000002" "00000064" "000007d0"  # uid gid gids
        "00000000" "00000000",  # null verifier
        lambda dec: CallHeader.decode(dec),
    ),
    "call_auth_none": (
        lambda: CallHeader(7, 100003, 3, 1).encode().to_bytes(),
        "00000007" "00000000" "00000002" "000186a3" "00000003" "00000001"
        "00000000" "00000000" "00000000" "00000000",
        lambda dec: CallHeader.decode(dec),
    ),
    "reply": (
        lambda: ReplyHeader(0x9ABCDEF0).encode().to_bytes(),
        "9abcdef0" "00000001" "00000000" "00000000" "00000000" "00000000",
        lambda dec: ReplyHeader.decode(dec),
    ),
    "reply_prog_unavail": (
        lambda: ReplyHeader(5, PROG_UNAVAIL).encode().to_bytes(),
        "00000005" "00000001" "00000000" "00000000" "00000000" "00000001",
        lambda dec: ReplyHeader.decode(dec),
    ),
    "fattr3": (
        lambda: _encoded(ATTR.encode),
        FATTR3_HEX,
        lambda dec: Fattr3.decode(dec),
    ),
    "wcc_data": (
        lambda: proto.AttrOnlyRes(0, ATTR).encode(),
        "00000000" "00000000" "00000001" + FATTR3_HEX,
        lambda dec: proto.AttrOnlyRes.decode(dec),
    ),
    "lookup_res": (
        lambda: proto.LookupRes(0, _fh(99), ATTR, DIR_ATTR).encode(),
        "00000000" + FH_HEX + "00000001" + FATTR3_HEX
        + "00000001" + DIR_FATTR3_HEX,
        lambda dec: proto.LookupRes.decode(dec),
    ),
    "read_args": (
        lambda: proto.encode_read_args(_fh(99), 1 << 33, 8192),
        FH_HEX + "0000000200000000" "00002000",
        lambda dec: proto.decode_read_args(dec),
    ),
    "write_args": (
        lambda: proto.encode_write_args(_fh(99), 65536, 4096, 2),
        FH_HEX + "0000000000010000" "00001000" "00000002" "00001000",
        lambda dec: proto.decode_write_args(dec),
    ),
}


def _encoded(encode):
    enc = Encoder()
    encode(enc)
    return enc.to_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(name):
    encode, expected, _ = GOLDEN[name]
    assert encode().hex() == expected


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_decodes_to_the_end(name):
    _, expected, decode = GOLDEN[name]
    dec = Decoder(bytes.fromhex(expected))
    decode(dec)
    assert dec.done()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_truncation_raises_xdr_error(name):
    _, expected, decode = GOLDEN[name]
    raw = bytes.fromhex(expected)
    for cut in range(len(raw)):
        with pytest.raises(XdrError):
            decode(Decoder(raw[:cut]))


def test_golden_decoded_values():
    dec = Decoder(bytes.fromhex(GOLDEN["call"][1]))
    call = CallHeader.decode(dec)
    assert (call.xid, call.prog, call.vers, call.proc) == (0x12345678, 100003, 3, 6)
    assert call.cred == CRED
    lookup = proto.LookupRes.decode(Decoder(bytes.fromhex(GOLDEN["lookup_res"][1])))
    assert lookup.fh == _fh(99)
    assert lookup.attr_offset == 44
    assert lookup.attr.atime == 2.0
    assert lookup.attr.ctime == 123456 + 1 / 1e9
    assert lookup.dir_attr == DIR_ATTR
    assert proto.decode_write_args(
        Decoder(bytes.fromhex(GOLDEN["write_args"][1]))
    ) == (_fh(99), 65536, 4096, 2)


def test_attr_offsets_point_at_fattr3():
    wcc = proto.AttrOnlyRes(0, ATTR)
    assert wcc.encode()[wcc.attr_offset:wcc.attr_offset + 84].hex() == FATTR3_HEX
    lookup = proto.LookupRes(0, _fh(99), ATTR, DIR_ATTR)
    raw = lookup.encode()
    assert lookup.attr_offset == 44
    assert raw[44:44 + 84].hex() == FATTR3_HEX


OUT_OF_RANGE = [
    lambda: CallHeader(1 << 32, 100003, 3, 6).encode(),
    lambda: CallHeader(1, 100003, 3, -1, CRED).encode(),
    lambda: CallHeader(1, 100003, 3, 6, Credential("m", uid=1 << 32)).encode(),
    lambda: CallHeader(1, 100003, 3, 6, Credential("m", gids=[-1])).encode(),
    lambda: ReplyHeader(-1).encode(),
    lambda: ReplyHeader(1, 1 << 32).encode(),
    lambda: _encoded(Fattr3(size=-1).encode),
    lambda: _encoded(Fattr3(used=1 << 64).encode),
    lambda: _encoded(Fattr3(mode=1 << 32).encode),
    lambda: _encoded(Fattr3(fileid=-5).encode),
    lambda: proto.AttrOnlyRes(1 << 32, ATTR).encode(),
    lambda: proto.AttrOnlyRes(0, Fattr3(nlink=-1)).encode(),
    lambda: proto.LookupRes(0, _fh(1), Fattr3(gid=1 << 32)).encode(),
    lambda: proto.encode_read_args(_fh(1), -1, 10),
    lambda: proto.encode_read_args(_fh(1), 0, 1 << 32),
    lambda: proto.encode_write_args(_fh(1), 1 << 64, 10, 0),
    lambda: proto.encode_write_args(_fh(1), 0, 10, -2),
    lambda: proto.encode_commit_args(_fh(1), 0, -1),
    lambda: proto.ReadRes(0, ATTR, count=-1).encode(),
    lambda: proto.WriteRes(0, ATTR, count=1, verf=1 << 64).encode(),
]


@pytest.mark.parametrize("case", range(len(OUT_OF_RANGE)))
def test_out_of_range_field_raises_xdr_error(case):
    with pytest.raises(XdrError):
        OUT_OF_RANGE[case]()


def test_reply_with_nonempty_verifier():
    raw = (
        Encoder().u32(9).u32(1).u32(0)  # xid, REPLY, MSG_ACCEPTED
        .u32(1).opaque_var(b"abcde")  # verifier: flavor 1, 5 bytes + pad
        .u32(PROG_UNAVAIL).u32(0xDEADBEEF).to_bytes()
    )
    dec = Decoder(raw)
    reply = ReplyHeader.decode(dec)
    assert (reply.xid, reply.accept_stat) == (9, PROG_UNAVAIL)
    assert dec.peek_u32() == 0xDEADBEEF and dec.offset == 32
    for cut in range(32):
        with pytest.raises(XdrError):
            ReplyHeader.decode(Decoder(raw[:cut]))
    with pytest.raises(XdrError):
        Decoder(raw, len(raw) - 2).peek_u32()
