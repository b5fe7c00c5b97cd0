"""Focused µproxy unit tests: segmentation, verifier virtualization,
readdir chaining, and synthesized error replies."""

import pytest

from repro.core.placement import IoPolicy
from repro.core.uproxy import ProxyParams
from repro.dirsvc.config import NAME_HASHING
from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.nfs.errors import NFS3ERR_INVAL, NFS3ERR_ISDIR, NFS3_OK
from repro.nfs.types import UNSTABLE
from repro.util.bytesim import PatternData, RealData


def small_cluster(**overrides):
    defaults = dict(
        num_storage_nodes=4, num_dir_servers=2, num_sf_servers=2,
        dir_logical_sites=8, sf_logical_sites=8,
    )
    defaults.update(overrides)
    return SliceCluster(params=ClusterParams(**defaults))


# -- _io_segments ------------------------------------------------------------


def segments_of(proxy, offset, count):
    return proxy._io_segments(offset, count)


def test_segments_single_below_threshold():
    cluster = small_cluster()
    _c, proxy = cluster.add_client()
    assert segments_of(proxy, 0, 32 << 10) == [(0, 32 << 10)]
    assert segments_of(proxy, 32 << 10, 32 << 10) == [(32 << 10, 32 << 10)]


def test_segments_single_above_threshold():
    cluster = small_cluster()
    _c, proxy = cluster.add_client()
    assert segments_of(proxy, 64 << 10, 32 << 10) == [(64 << 10, 32 << 10)]
    assert segments_of(proxy, 96 << 10, 32 << 10) == [(96 << 10, 32 << 10)]


def test_segments_straddle_threshold():
    cluster = small_cluster()
    _c, proxy = cluster.add_client()
    t = 64 << 10
    segs = segments_of(proxy, t - 1000, 2000)
    assert segs == [(t - 1000, 1000), (t, 1000)]


def test_segments_straddle_stripe_units():
    cluster = small_cluster()
    _c, proxy = cluster.add_client()
    unit = 32 << 10
    start = (64 << 10) + unit - 100
    segs = segments_of(proxy, start, unit + 200)
    assert segs[0] == (start, 100)
    assert segs[1] == ((64 << 10) + unit, unit)
    assert segs[2][1] == 100
    assert sum(length for _o, length in segs) == unit + 200


def test_segments_cover_range_exactly():
    cluster = small_cluster()
    _c, proxy = cluster.add_client()
    for offset, count in [(0, 300 << 10), (1234, 98765), (63 << 10, 5 << 10)]:
        segs = segments_of(proxy, offset, count)
        assert segs[0][0] == offset
        assert sum(length for _o, length in segs) == count
        pos = offset
        for seg_off, seg_len in segs:
            assert seg_off == pos
            pos += seg_len


# -- error synthesis ------------------------------------------------------------


def test_read_write_on_directory_rejected_without_server_hop():
    cluster = small_cluster()
    client, proxy = cluster.add_client()

    def run():
        made = yield from client.mkdir(cluster.root_fh, "d")
        routed_before = proxy.requests_routed
        res, _ = yield from client.read(made.fh, 0, 100)
        wres = yield from client.write(made.fh, 0, RealData(b"x"))
        return res.status, wres.status, proxy.requests_routed - routed_before

    rstatus, wstatus, routed = cluster.run(run())
    assert rstatus == NFS3ERR_ISDIR
    assert wstatus == NFS3ERR_ISDIR
    assert routed == 0  # answered locally by the µproxy


def test_io_on_symlink_rejected():
    cluster = small_cluster()
    client, proxy = cluster.add_client()

    def run():
        made = yield from client.symlink(cluster.root_fh, "ln", "/t")
        res, _ = yield from client.read(made.fh, 0, 10)
        return res.status

    assert cluster.run(run()) == NFS3ERR_INVAL


# -- verifier virtualization ---------------------------------------------------


def test_all_writes_carry_one_virtual_verifier():
    """Stripes land on different nodes with different native verifiers; the
    client must see a single virtualized one."""
    cluster = small_cluster()
    client, proxy = cluster.add_client()

    def run():
        created = yield from client.create(cluster.root_fh, "f")
        verfs = set()
        for i in range(8):
            res = yield from client.write(
                created.fh, (64 << 10) + i * (32 << 10),
                PatternData(32 << 10, seed=i), UNSTABLE,
            )
            verfs.add(res.verf)
        return verfs

    verfs = cluster.run(run())
    assert len(verfs) == 1
    assert verfs.pop() == proxy.verf_epoch


def test_discard_state_bumps_epoch():
    cluster = small_cluster()
    _client, proxy = cluster.add_client()
    before = proxy.verf_epoch
    proxy.discard_state()
    assert proxy.verf_epoch != before


def test_node_reboot_bumps_epoch_on_next_reply():
    cluster = small_cluster()
    client, proxy = cluster.add_client()

    def run():
        created = yield from client.create(cluster.root_fh, "f")
        yield from client.write(
            created.fh, 64 << 10, PatternData(32 << 10, seed=1), UNSTABLE
        )
        epoch_before = proxy.verf_epoch
        for node in cluster.storage_nodes:
            node.crash()
            node.restart()
        # Any subsequent write reply reveals a changed node verifier.
        yield from client.write(
            created.fh, 64 << 10, PatternData(32 << 10, seed=2), UNSTABLE
        )
        return epoch_before

    epoch_before = cluster.run(run())
    assert proxy.verf_epoch != epoch_before


# -- readdir chaining -----------------------------------------------------------


def test_readdir_chains_through_empty_sites():
    """Name hashing with far more logical sites than entries: most sites
    hold nothing for the directory, and the µproxy must chain through the
    empty ones without confusing the client."""
    cluster = small_cluster(name_mode=NAME_HASHING, dir_logical_sites=8)
    client, proxy = cluster.add_client()

    def run():
        for i in range(3):
            res = yield from client.create(cluster.root_fh, f"only{i}")
            assert res.status == NFS3_OK
        status, entries = yield from client.readdir(cluster.root_fh)
        return status, sorted(
            e.name for e in entries if e.name.startswith("only")
        )

    status, names = cluster.run(run())
    assert status == 0
    assert names == ["only0", "only1", "only2"]


def test_readdir_empty_directory_name_hashing():
    cluster = small_cluster(name_mode=NAME_HASHING)
    client, proxy = cluster.add_client()

    def run():
        made = yield from client.mkdir(cluster.root_fh, "empty")
        status, entries = yield from client.readdir(made.fh)
        return status, [e.name for e in entries]

    status, names = cluster.run(run())
    assert status == 0
    assert sorted(names) == [".", ".."]


# -- split I/O end-to-end ---------------------------------------------------------


def test_unaligned_write_read_consistency():
    """A write straddling both the threshold and stripe boundaries reads
    back identically regardless of read alignment."""
    cluster = small_cluster()
    client, proxy = cluster.add_client()
    offset = (64 << 10) - 5000
    payload = PatternData(80_000, seed=9)

    def run():
        created = yield from client.create(cluster.root_fh, "span")
        res = yield from client.write(created.fh, offset, payload)
        assert res.status == NFS3_OK
        assert res.count == payload.length
        whole = yield from client.read_file(
            created.fh, offset + payload.length
        )
        res2, tail = yield from client.read(
            created.fh, offset + 1234, 50_000
        )
        return whole, tail

    whole, tail = cluster.run(run())
    assert whole.slice(offset, offset + payload.length) == payload
    assert tail == payload.slice(1234, 1234 + 50_000)


def test_readdirplus_through_proxy():
    cluster = small_cluster(name_mode=NAME_HASHING)
    client, _proxy = cluster.add_client()

    def run():
        for i in range(10):
            res = yield from client.create(cluster.root_fh, f"pf{i}")
            assert res.status == NFS3_OK
        status, entries = yield from client.readdir(cluster.root_fh, plus=True)
        return status, entries

    status, entries = cluster.run(run())
    assert status == 0
    named = {e.name: e for e in entries if e.name.startswith("pf")}
    assert len(named) == 10
    # READDIRPLUS returns handles for each entry.
    assert all(e.fh is not None for e in named.values())


# -- attribute write-back on eviction -------------------------------------------


def test_attr_cache_eviction_writes_dirty_size_back():
    """A one-entry attribute cache evicts ``a``'s dirty size when the
    µproxy routes ``b``'s write; the size must still reach the directory
    server."""
    cluster = small_cluster()
    client, _proxy = cluster.add_client(
        proxy_params=ProxyParams(attr_cache_capacity=1)
    )
    reader, _ = cluster.add_client(port=701)

    def run():
        fhs = []
        for name in ("a", "b"):
            res = yield from client.create(cluster.root_fh, name)
            fhs.append(res.fh)
        # Writing b evicts a, dirty, from the one-entry cache.
        for fh, size in zip(fhs, (5000, 7000)):
            yield from client.write(fh, 0, PatternData(size, seed=size))
        for fh in fhs:
            yield from client.commit(fh)
        yield cluster.sim.timeout(10.0)
        sizes = []
        for fh in fhs:
            res = yield from reader.getattr(fh)
            sizes.append(res.attr.size)
        return tuple(sizes)

    assert cluster.run(run()) == (5000, 7000)


def test_read_fixup_eviction_writes_dirty_size_back():
    """Reading an uncached file fetches its attributes, which evicts the
    dirty entry of ``a`` from a one-entry cache; ``a``'s size must still
    reach the directory server."""
    cluster = small_cluster()
    client, _proxy = cluster.add_client(
        proxy_params=ProxyParams(attr_cache_capacity=1)
    )
    reader, _ = cluster.add_client(port=701)

    def run():
        a = yield from client.create(cluster.root_fh, "a")
        b = yield from client.create(cluster.root_fh, "b")
        yield from client.write(a.fh, 0, PatternData(5000, seed=1))
        res, _ = yield from client.read(b.fh, 0, 4096)  # misses: fixup
        assert res.status == NFS3_OK
        yield cluster.sim.timeout(10.0)
        attrs = yield from reader.getattr(a.fh)
        return attrs.attr.size

    assert cluster.run(run()) == 5000
