"""Directory server semantics on a single server (one physical, several
logical sites)."""

import pytest

from repro.nfs.errors import (
    NFS3ERR_EXIST,
    NFS3ERR_ISDIR,
    NFS3ERR_NOENT,
    NFS3ERR_NOTDIR,
    NFS3ERR_NOTEMPTY,
    NFS3ERR_STALE,
    NFS3_OK,
)
from repro.nfs.fhandle import FHandle
from repro.nfs.types import NF3DIR, NF3LNK, NF3REG, Sattr3

from dir_harness import DirHarness


def harness(**kw):
    kw.setdefault("num_servers", 1)
    return DirHarness(**kw)


def test_create_and_lookup():
    h = harness()

    def run():
        created = yield from h.create(h.root_fh, "hello.txt")
        assert created.status == NFS3_OK
        found = yield from h.lookup(h.root_fh, "hello.txt")
        return created, found

    created, found = h.run(run())
    assert found.status == NFS3_OK
    assert found.fh == created.fh
    assert found.attr.ftype == NF3REG
    assert found.attr.nlink == 1


def test_lookup_missing_is_noent():
    h = harness()

    def run():
        res = yield from h.lookup(h.root_fh, "ghost")
        return res

    assert h.run(run()).status == NFS3ERR_NOENT


def test_lookup_dot_and_dotdot():
    h = harness()

    def run():
        made = yield from h.mkdir(h.root_fh, "sub")
        sub_fh = FHandle.unpack(made.fh)
        dot = yield from h.lookup(sub_fh, ".")
        dotdot = yield from h.lookup(sub_fh, "..")
        return made, dot, dotdot

    made, dot, dotdot = h.run(run())
    assert dot.status == NFS3_OK
    assert dot.attr.fileid == FHandle.unpack(made.fh).fileid
    assert dotdot.status == NFS3_OK
    assert dotdot.attr.fileid == h.root_fh.fileid


def test_guarded_create_conflict():
    h = harness()

    def run():
        yield from h.create(h.root_fh, "file", mode=1)
        res = yield from h.create(h.root_fh, "file", mode=1)
        return res

    assert h.run(run()).status == NFS3ERR_EXIST


def test_unchecked_create_returns_existing():
    h = harness()

    def run():
        first = yield from h.create(h.root_fh, "file", mode=0)
        second = yield from h.create(h.root_fh, "file", mode=0)
        return first, second

    first, second = h.run(run())
    assert second.status == NFS3_OK
    assert second.fh == first.fh


def test_create_in_nonexistent_parent_type():
    h = harness()

    def run():
        created = yield from h.create(h.root_fh, "plain")
        file_fh = FHandle.unpack(created.fh)
        res = yield from h.create(file_fh, "child")
        return res

    assert h.run(run()).status == NFS3ERR_NOTDIR


def test_mkdir_sets_nlink_and_parent_link():
    h = harness()

    def run():
        made = yield from h.mkdir(h.root_fh, "d1")
        sub = yield from h.getattr(FHandle.unpack(made.fh))
        root = yield from h.getattr(h.root_fh)
        return made, sub, root

    made, sub, root = h.run(run())
    assert made.status == NFS3_OK
    assert sub.attr.nlink == 2
    assert root.attr.nlink == 3  # root gained a subdirectory


def test_remove_file():
    h = harness()

    def run():
        yield from h.create(h.root_fh, "doomed")
        res = yield from h.remove(h.root_fh, "doomed")
        gone = yield from h.lookup(h.root_fh, "doomed")
        return res, gone

    res, gone = h.run(run())
    assert res.status == NFS3_OK
    assert gone.status == NFS3ERR_NOENT


def test_remove_missing_is_noent():
    h = harness()

    def run():
        res = yield from h.remove(h.root_fh, "never")
        return res

    assert h.run(run()).status == NFS3ERR_NOENT


def test_remove_directory_is_isdir():
    h = harness()

    def run():
        yield from h.mkdir(h.root_fh, "d")
        res = yield from h.remove(h.root_fh, "d")
        return res

    assert h.run(run()).status == NFS3ERR_ISDIR


def test_rmdir_empty_ok_and_parent_nlink_drops():
    h = harness()

    def run():
        yield from h.mkdir(h.root_fh, "d")
        res = yield from h.rmdir(h.root_fh, "d")
        root = yield from h.getattr(h.root_fh)
        return res, root

    res, root = h.run(run())
    assert res.status == NFS3_OK
    assert root.attr.nlink == 2


def test_rmdir_nonempty_rejected():
    h = harness()

    def run():
        made = yield from h.mkdir(h.root_fh, "d")
        yield from h.create(FHandle.unpack(made.fh), "occupant")
        res = yield from h.rmdir(h.root_fh, "d")
        return res

    assert h.run(run()).status == NFS3ERR_NOTEMPTY


def test_rmdir_on_file_is_notdir():
    h = harness()

    def run():
        yield from h.create(h.root_fh, "f")
        res = yield from h.rmdir(h.root_fh, "f")
        return res

    assert h.run(run()).status == NFS3ERR_NOTDIR


def test_getattr_stale_after_remove():
    h = harness()

    def run():
        created = yield from h.create(h.root_fh, "f")
        fh = FHandle.unpack(created.fh)
        yield from h.remove(h.root_fh, "f")
        res = yield from h.getattr(fh)
        return res

    assert h.run(run()).status == NFS3ERR_STALE


def test_setattr_mode_and_times():
    h = harness()

    def run():
        created = yield from h.create(h.root_fh, "f")
        fh = FHandle.unpack(created.fh)
        res = yield from h.setattr(fh, Sattr3(mode=0o600, mtime=123.5))
        return res

    res = h.run(run())
    assert res.status == NFS3_OK
    assert res.attr.mode == 0o600
    assert res.attr.mtime == pytest.approx(123.5)


def test_setattr_guard_mismatch():
    h = harness()

    def run():
        created = yield from h.create(h.root_fh, "f")
        fh = FHandle.unpack(created.fh)
        res = yield from h.setattr(fh, Sattr3(mode=0o600), guard=999999.0)
        return res

    from repro.nfs.errors import NFS3ERR_NOT_SYNC

    assert h.run(run()).status == NFS3ERR_NOT_SYNC


def test_link_and_remove_one_name():
    h = harness()

    def run():
        created = yield from h.create(h.root_fh, "orig")
        fh = FHandle.unpack(created.fh)
        linked = yield from h.link(fh, h.root_fh, "alias")
        assert linked.status == NFS3_OK
        assert linked.file_attr.nlink == 2
        yield from h.remove(h.root_fh, "orig")
        alias = yield from h.lookup(h.root_fh, "alias")
        return alias

    alias = h.run(run())
    assert alias.status == NFS3_OK
    assert alias.attr.nlink == 1


def test_link_existing_name_rejected():
    h = harness()

    def run():
        created = yield from h.create(h.root_fh, "a")
        yield from h.create(h.root_fh, "b")
        res = yield from h.link(FHandle.unpack(created.fh), h.root_fh, "b")
        return res

    assert h.run(run()).status == NFS3ERR_EXIST


def test_rename_same_dir():
    h = harness()

    def run():
        created = yield from h.create(h.root_fh, "old")
        res = yield from h.rename(h.root_fh, "old", h.root_fh, "new")
        old = yield from h.lookup(h.root_fh, "old")
        new = yield from h.lookup(h.root_fh, "new")
        return created, res, old, new

    created, res, old, new = h.run(run())
    assert res.status == NFS3_OK
    assert old.status == NFS3ERR_NOENT
    assert new.status == NFS3_OK
    assert new.attr.fileid == FHandle.unpack(created.fh).fileid


def test_rename_overwrites_existing_file():
    h = harness()

    def run():
        a = yield from h.create(h.root_fh, "a")
        yield from h.create(h.root_fh, "b")
        res = yield from h.rename(h.root_fh, "a", h.root_fh, "b")
        b = yield from h.lookup(h.root_fh, "b")
        return a, res, b

    a, res, b = h.run(run())
    assert res.status == NFS3_OK
    assert b.attr.fileid == FHandle.unpack(a.fh).fileid


def test_rename_missing_source_is_noent():
    h = harness()

    def run():
        res = yield from h.rename(h.root_fh, "nope", h.root_fh, "other")
        return res

    assert h.run(run()).status == NFS3ERR_NOENT


def test_rename_directory_across_parents_updates_nlink():
    h = harness()

    def run():
        d1 = yield from h.mkdir(h.root_fh, "d1")
        d2 = yield from h.mkdir(h.root_fh, "d2")
        sub = yield from h.mkdir(FHandle.unpack(d1.fh), "sub")
        res = yield from h.rename(
            FHandle.unpack(d1.fh), "sub", FHandle.unpack(d2.fh), "moved"
        )
        a1 = yield from h.getattr(FHandle.unpack(d1.fh))
        a2 = yield from h.getattr(FHandle.unpack(d2.fh))
        moved = yield from h.lookup(FHandle.unpack(d2.fh), "moved")
        dotdot = yield from h.lookup(FHandle.unpack(sub.fh), "..")
        return res, a1, a2, moved, dotdot

    res, a1, a2, moved, dotdot = h.run(run())
    assert res.status == NFS3_OK
    assert a1.attr.nlink == 2  # lost its subdir
    assert a2.attr.nlink == 3  # gained it
    assert moved.status == NFS3_OK
    assert dotdot.attr.fileid == a2.attr.fileid  # parent pointer rewritten


def test_symlink_and_readlink():
    h = harness()

    def run():
        made = yield from h.symlink(h.root_fh, "ln", "/target/path")
        res = yield from h.readlink(FHandle.unpack(made.fh))
        return made, res

    made, res = h.run(run())
    assert made.status == NFS3_OK
    assert FHandle.unpack(made.fh).ftype == NF3LNK
    assert res.status == NFS3_OK
    assert res.path == "/target/path"


def test_readdir_lists_all_entries():
    h = harness()

    def run():
        for i in range(10):
            yield from h.create(h.root_fh, f"file-{i:02d}")
        status, names = yield from h.readdir_all(h.root_fh)
        return status, names

    status, names = h.run(run())
    assert status == 0
    assert names[0] == "." and names[1] == ".."
    assert sorted(n for n in names if n.startswith("file-")) == [
        f"file-{i:02d}" for i in range(10)
    ]


def test_readdir_paginates():
    h = harness(params=None)
    # Force tiny readdir replies to exercise cookie-based continuation.
    for server in h.servers:
        server.params.readdir_max_entries = 4

    def run():
        for i in range(20):
            yield from h.create(h.root_fh, f"e{i:03d}")
        status, names = yield from h.readdir_all(h.root_fh)
        return status, names

    status, names = h.run(run())
    assert status == 0
    entries = [n for n in names if n.startswith("e")]
    assert len(entries) == 20
    assert len(set(entries)) == 20  # no duplicates across pages


def test_cookie_for_key_matches_name_cell_cookie():
    import hashlib
    import random

    from repro.dirsvc.state import NameCell, cookie_for_key, name_key_for

    rng = random.Random(7)
    for _ in range(200):
        parent = rng.randrange(1 << 48)
        name = "".join(rng.choice("abcxyz-_.é0") for _ in range(rng.randrange(1, 30)))
        digest = hashlib.md5(
            b"name:" + parent.to_bytes(8, "big") + name.encode("utf-8")
        ).digest()
        expected = max(3, int.from_bytes(digest[:8], "big") >> 16)
        cell = NameCell(parent, name, 5, NF3REG, 0, 0)
        assert cell.cookie == expected
        assert cookie_for_key(name_key_for(parent, name)) == expected


def test_readdir_pages_match_reference_listing():
    """A directory spanning six replies lists the same names, cookies and
    eof flags as the original implementation (which re-hashed every name and
    sorted the directory twice per reply)."""
    import hashlib

    from repro.nfs import proto

    h = harness()
    for server in h.servers:
        server.params.readdir_max_entries = 8

    def run():
        for i in range(45):
            yield from h.create(h.root_fh, f"f{i * 7919 % 1000:03d}")
        pages, cookie = [], 0
        while True:
            dec = yield from h.call(
                0, proto.PROC_READDIR,
                proto.encode_readdir_args(h.root_fh.pack(), cookie, 0, 4096),
            )
            res = proto.ReaddirRes.decode(dec)
            pages.append(([(e.name, e.cookie) for e in res.entries], res.eof))
            if res.eof:
                return pages
            cookie = res.entries[-1].cookie

    pages = h.run(run())
    assert [len(entries) for entries, _ in pages] == [8, 8, 8, 8, 8, 7]
    assert [eof for _, eof in pages] == [False] * 5 + [True]
    cookies = [c for entries, _ in pages for _, c in entries]
    assert cookies[:2] == [1, 2] and cookies == sorted(set(cookies))
    # Recorded from the original implementation.
    assert hashlib.sha256(repr(pages).encode()).hexdigest() == (
        "b7feec5c7c707293a93c918a28ad1a44a01f2126a03ebaae2d81c3ee3451bee7"
    )
