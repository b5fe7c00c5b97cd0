"""Golden µproxy traces: one pinned exchange record per µproxy path.

Each scenario runs client operations through a traced cluster and pins,
for every exchange they opened, the ``uproxy`` spans (name, then the
attributes sorted by key), the tags of the checked packet rewrites, and
how many replies the µproxy built itself (``UProxy.synthesized``).
Timestamps are left out: they shift with the number of clusters an
interpreter has built (``DirectoryServer._txid_counter`` is class-level),
so they would depend on test order.

Any change in what the µproxy routes, rewrites, clones or synthesizes on
one of these paths shows up here as a diff.
"""

from repro.dirsvc.config import NAME_HASHING
from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.nfs.errors import NFS3ERR_ISDIR, NFS3_OK
from repro.nfs.types import FILE_SYNC, UNSTABLE
from repro.obs import TraceChecker, Tracer
from repro.util.bytesim import PatternData

THRESHOLD = 64 << 10


def traced_cluster(**overrides):
    params = dict(
        num_storage_nodes=4, num_dir_servers=2, num_sf_servers=2,
        dir_logical_sites=8, sf_logical_sites=8,
    )
    params.update(overrides)
    cluster = SliceCluster(params=ClusterParams(**params), tracer=Tracer())
    client, proxy = cluster.add_client()
    return cluster, client, proxy


def observe(cluster, proxy, op):
    """Run ``op()`` to completion; return its result and the µproxy's
    record of it.

    The record is ``(exchanges, synthesized)``: one ``(proc, spans,
    rewrite tags)`` triple per exchange the operation opened, in order,
    and the number of replies the µproxy synthesized meanwhile."""
    tracer = cluster.tracer
    seen = set(tracer.exchanges)
    synthesized = proxy.synthesized
    result = cluster.run(op())
    exchanges = [
        (
            exchange.proc,
            [
                " ".join([span.name] + [
                    f"{key}={value!r}"
                    for key, value in sorted(span.attrs.items())
                ])
                for span in exchange.spans if span.component == "uproxy"
            ],
            [check[0] for check in exchange.rewrite_checks],
        )
        for key, exchange in tracer.exchanges.items() if key not in seen
    ]
    TraceChecker(tracer).check(require_replies=False)
    return result, (exchanges, proxy.synthesized - synthesized)


def make_file(cluster, client, name="f"):
    def op():
        res = yield from client.create(cluster.root_fh, name)
        assert res.status == NFS3_OK
        return res.fh
    return cluster.run(op())


def write(cluster, client, fh, offset, length, seed=1, stable=UNSTABLE):
    def op():
        res = yield from client.write(
            fh, offset, PatternData(length, seed=seed), stable
        )
        assert res.status == NFS3_OK
    cluster.run(op())


def test_name_entry_attr_site_and_mkdir_switch_redirects():
    cluster, client, proxy = traced_cluster(mkdir_p=1.0)

    def op():
        made = yield from client.mkdir(cluster.root_fh, "d")
        created = yield from client.create(made.fh, "f")
        looked = yield from client.lookup(made.fh, "f")
        linked = yield from client.symlink(made.fh, "l", "/f")
        removed = yield from client.remove(made.fh, "l")
        sub = yield from client.mkdir(made.fh, "e")
        rmdir = yield from client.rmdir(made.fh, "e")
        attrs = yield from client.getattr(created.fh)
        yield from client.null()
        return [r.status for r in (made, created, looked, linked, removed,
                                   sub, rmdir, attrs)]

    statuses, record = observe(cluster, proxy, op)
    assert statuses == [NFS3_OK] * 8
    assert record == EXPECTED_NAME_OPS


def test_mirrored_bulk_write_clones_and_reads_alternate():
    cluster, client, proxy = traced_cluster(mirror_files=True)
    fh = make_file(cluster, client)

    def write_op():
        res = yield from client.write(
            fh, THRESHOLD, PatternData(32 << 10, seed=3), UNSTABLE
        )
        return res.status

    def read_op():
        first, _ = yield from client.read(fh, THRESHOLD, 32 << 10)
        second, _ = yield from client.read(fh, THRESHOLD, 32 << 10)
        return first.status, second.status

    status, record = observe(cluster, proxy, write_op)
    assert status == NFS3_OK
    assert record == EXPECTED_MIRRORED_WRITE
    statuses, record = observe(cluster, proxy, read_op)
    assert statuses == (NFS3_OK, NFS3_OK)
    assert record == EXPECTED_MIRRORED_READS


def test_split_write_and_split_read():
    cluster, client, proxy = traced_cluster()
    fh = make_file(cluster, client)
    offset = THRESHOLD - 5000

    def write_op():
        res = yield from client.write(
            fh, offset, PatternData(10_000, seed=4), FILE_SYNC
        )
        return res.status, res.count

    def read_op():
        res, body = yield from client.read(fh, offset, 10_000)
        return res.status, body.length, res.eof

    result, record = observe(cluster, proxy, write_op)
    assert result == (NFS3_OK, 10_000)
    assert record == EXPECTED_SPLIT_WRITE
    result, record = observe(cluster, proxy, read_op)
    assert result == (NFS3_OK, 10_000, True)
    assert record == EXPECTED_SPLIT_READ


def test_commit_fan_out():
    cluster, client, proxy = traced_cluster()
    fh = make_file(cluster, client)
    write(cluster, client, fh, 0, 4096)
    write(cluster, client, fh, THRESHOLD, 32 << 10, seed=2)

    def op():
        res = yield from client.commit(fh)
        return res.status

    status, record = observe(cluster, proxy, op)
    assert status == NFS3_OK
    assert record == EXPECTED_COMMIT


def test_getattr_answered_from_dirty_attribute_cache():
    cluster, client, proxy = traced_cluster()
    fh = make_file(cluster, client)
    write(cluster, client, fh, 0, 3000)

    def op():
        res = yield from client.getattr(fh)
        return res.status, res.attr.size

    result, record = observe(cluster, proxy, op)
    assert result == (NFS3_OK, 3000)
    assert record == EXPECTED_GETATTR_CACHE


def test_read_of_directory_synthesizes_isdir():
    cluster, client, proxy = traced_cluster()

    def setup():
        made = yield from client.mkdir(cluster.root_fh, "d")
        return made.fh

    dir_fh = cluster.run(setup())

    def op():
        res, _ = yield from client.read(dir_fh, 0, 100)
        return res.status

    status, record = observe(cluster, proxy, op)
    assert status == NFS3ERR_ISDIR
    assert record == EXPECTED_ISDIR


def test_read_fixup_on_attribute_cache_miss():
    cluster, client, proxy = traced_cluster()
    fh = make_file(cluster, client)
    write(cluster, client, fh, 0, 3000, stable=FILE_SYNC)

    def commit():
        yield from client.commit(fh)

    cluster.run(commit())
    proxy.attr_cache.clear()

    def op():
        res, body = yield from client.read(fh, 0, 8192)
        return res.status, body.length, res.eof

    result, record = observe(cluster, proxy, op)
    assert result == (NFS3_OK, 3000, True)
    assert record == EXPECTED_READ_FIXUP


def readdir_record(dir_sites, names):
    cluster, client, proxy = traced_cluster(
        name_mode=NAME_HASHING, dir_logical_sites=dir_sites
    )

    def setup():
        for name in names:
            res = yield from client.create(cluster.root_fh, name)
            assert res.status == NFS3_OK

    cluster.run(setup())

    def op():
        status, entries = yield from client.readdir(cluster.root_fh)
        return status, sorted(e.name for e in entries)

    result, record = observe(cluster, proxy, op)
    assert result == (NFS3_OK, sorted([".", ".."] + names))
    return record


def test_readdir_rebuilds_each_sites_last_page():
    assert readdir_record(4, ["e0", "e1", "e2"]) == EXPECTED_READDIR_REBUILD


def test_readdir_chains_through_empty_sites():
    assert readdir_record(8, ["only"]) == EXPECTED_READDIR_CHAIN


# -- expectations ------------------------------------------------------------

EXPECTED_NAME_OPS = ([(9,
   ['exchange',
    'call proc=9 size=164',
    "route dst='dir1:5049' reason='mkdir-switch' site=3",
    'reply synthesized=False'],
   ['redirect', 'finish']),
  (8,
   ['exchange',
    'call proc=8 size=168',
    "route dst='dir1:5049' reason='name-entry' site=3",
    'reply synthesized=False'],
   ['redirect', 'finish']),
  (3,
   ['exchange',
    'call proc=3 size=140',
    "route dst='dir1:5049' reason='name-entry' site=3",
    'reply synthesized=False'],
   ['redirect', 'finish']),
  (10,
   ['exchange',
    'call proc=10 size=172',
    "route dst='dir1:5049' reason='name-entry' site=3",
    'reply synthesized=False'],
   ['redirect', 'finish']),
  (12,
   ['exchange',
    'call proc=12 size=140',
    "route dst='dir1:5049' reason='name-entry' site=3",
    'reply synthesized=False'],
   ['redirect', 'finish']),
  (9,
   ['exchange',
    'call proc=9 size=164',
    "route dst='dir1:5049' reason='mkdir-switch' site=3",
    'reply synthesized=False'],
   ['redirect', 'finish']),
  (13,
   ['exchange',
    'call proc=13 size=140',
    "route dst='dir1:5049' reason='name-entry' site=3",
    'reply synthesized=False'],
   ['redirect', 'finish']),
  (1,
   ['exchange',
    'call proc=1 size=132',
    "route dst='dir1:5049' reason='attr-site' site=3",
    'reply synthesized=False'],
   ['redirect', 'finish']),
  (0,
   ['exchange',
    'call proc=0 size=96',
    "route dst='dir0:5049' reason='null' site=0",
    'reply synthesized=False'],
   ['redirect', 'finish'])],
 0)
EXPECTED_MIRRORED_WRITE = ([(7,
   ['exchange',
    'call proc=7 size=32920',
    "route block=2 dst='store3:3049' mirrored=True reason='bulk-write' "
    'replicas=2 site=3',
    'reply synthesized=False'],
   ['bulk-write', 'bulk-write', 'finish'])],
 0)
EXPECTED_MIRRORED_READS = ([(6,
   ['exchange',
    'call proc=6 size=144',
    "route block=2 dst='store3:3049' mirrored=True reason='bulk-read' "
    'replicas=2 site=3',
    'reply synthesized=False'],
   ['bulk-read', 'finish']),
  (6,
   ['exchange',
    'call proc=6 size=144',
    "route block=2 dst='store1:3049' mirrored=True reason='bulk-read' "
    'replicas=2 site=1',
    'reply synthesized=False'],
   ['bulk-read', 'finish'])],
 0)
EXPECTED_SPLIT_WRITE = ([(7,
   ['exchange',
    'call proc=7 size=10152',
    "split count=10000 kind='write' offset=60536 segments=2",
    "segment length=5000 offset=65536 status=0 target='store3:3049'",
    "segment length=5000 offset=60536 status=0 target='sf0:6049'",
    "reply kind='split-write' synthesized=True"],
   [])],
 1)
EXPECTED_SPLIT_READ = ([(6,
   ['exchange',
    'call proc=6 size=144',
    "split count=10000 kind='read' offset=60536 segments=2",
    "segment length=5000 offset=65536 status=0 target='store3:3049'",
    "segment length=5000 offset=60536 status=0 target='sf0:6049'",
    "reply kind='split-read' synthesized=True"],
   [])],
 1)
EXPECTED_COMMIT = ([(21,
   ['exchange',
    'call proc=21 size=144',
    "absorb fileid=2 what='commit'",
    "route dst='sf0:6049' fanout=2 op_id=4294967297 reason='commit-fanout'",
    "reply kind='commit' synthesized=True"],
   [])],
 1)
EXPECTED_GETATTR_CACHE = ([(1,
   ['exchange',
    'call proc=1 size=132',
    "absorb what='getattr-cache'",
    'reply synthesized=True'],
   [])],
 1)
EXPECTED_ISDIR = ([(6, ['exchange', 'call proc=6 size=144', 'reply synthesized=True'], [])],
 1)
EXPECTED_READ_FIXUP = ([(6,
   ['exchange',
    'call proc=6 size=144',
    "route dst='sf0:6049' reason='small-file' site=0",
    "reply kind='read-fixup' synthesized=True"],
   ['redirect'])],
 1)
EXPECTED_READDIR_REBUILD = ([(16,
   ['exchange',
    'call proc=16 size=152',
    "route dst='dir0:5049' reason='readdir-cookie' site=0",
    'reply synthesized=False'],
   ['redirect', 'finish']),
  (16,
   ['exchange',
    'call proc=16 size=152',
    "route dst='dir1:5049' reason='readdir-cookie' site=1",
    'reply synthesized=False'],
   ['redirect', 'finish']),
  (16,
   ['exchange',
    'call proc=16 size=152',
    "route dst='dir0:5049' reason='readdir-cookie' site=2",
    'reply synthesized=False'],
   ['redirect', 'finish']),
  (16,
   ['exchange',
    'call proc=16 size=152',
    "route dst='dir1:5049' reason='readdir-cookie' site=3",
    'reply synthesized=False'],
   ['redirect', 'finish'])],
 3)
EXPECTED_READDIR_CHAIN = ([(16,
   ['exchange',
    'call proc=16 size=152',
    "route dst='dir0:5049' reason='readdir-cookie' site=0",
    'reply synthesized=False'],
   ['redirect', 'finish']),
  (16,
   ['exchange',
    'call proc=16 size=152',
    "route dst='dir1:5049' reason='readdir-cookie' site=1",
    "reply kind='readdir-chain' synthesized=True"],
   ['redirect'])],
 2)
