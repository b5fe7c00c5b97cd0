"""The four perfbench workloads, built from public ``repro`` APIs only.

Every workload is a :class:`Case` with three phases:

- ``setup()``: build the cluster, attach clients and preload the state the
  timed phase reads (timed as ``setup_s``);
- ``run()``: the workload itself (timed as ``run_s``);
- ``check()``: the output check, outside the timed phase where possible.

All inputs derive from one workload seed.  ``untar_traced`` is the
``untar`` case with a tracer, so the two run the very same tree plans.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.api import ClusterSpec, build
from repro.ensemble.params import ClusterParams
from repro.nfs.errors import NfsError
from repro.obs import TraceChecker
from repro.smallfile.server import SmallFileParams
from repro.storage.node import StorageNodeParams
from repro.workloads import (
    FilesetSpec,
    SfsConfig,
    SfsRun,
    UntarSpec,
    UntarWorkload,
    build_fileset,
    dd_read,
    dd_write,
)

__all__ = ["CASES", "Case", "drive"]


def drive(sim, gen, name: str = "perfbench"):
    """Run ``gen`` as a process until it finishes; return (value, steps).

    The same loop as ``Simulator.run_process``, written against the public
    ``step``/``triggered`` API so the benchmark can count sim events
    without a per-event hook inside the simulator.
    """
    proc = sim.process(gen, name)
    step = sim.step
    steps = 0
    try:
        while not proc.triggered:
            step()
            steps += 1
    except IndexError as exc:  # heappop on an empty event heap
        raise RuntimeError(f"simulation deadlocked in {name!r}") from exc
    if not proc.ok:
        raise proc.value
    return proc.value, steps


# -- simulated-clock counters ---------------------------------------------

def _rpc_endpoints(cluster):
    """(clients, servers): every RPC endpoint of the ensemble."""
    clients = [client.rpc for client, _proxy in cluster.clients]
    clients += [proxy.client for _client, proxy in cluster.clients]
    servers = [cluster.configsvc.server]
    for group in (cluster.dir_servers, cluster.sf_servers, cluster.coordinators):
        clients += [member.client for member in group]
        servers += [member.server for member in group]
    servers += [node.server for node in cluster.storage_nodes]
    return clients, servers


def _wal_logs(cluster):
    logs = [coord.log for coord in cluster.coordinators]
    p = cluster.params
    for kind, sites in (("dir", p.dir_logical_sites), ("sf", p.sf_logical_sites)):
        logs += [
            cluster.backing.site(kind, s).log
            for s in range(sites) if (kind, s) in cluster.backing
        ]
    return logs


def snapshot(cluster) -> Dict[str, float]:
    """Cumulative simulated-clock counters of one cluster, read from
    public attributes (no host cost during the run)."""
    rpc_clients, rpc_servers = _rpc_endpoints(cluster)
    proxies = [proxy for _client, proxy in cluster.clients]
    disks = [d for node in cluster.storage_nodes for d in node.array.disks]
    logs = _wal_logs(cluster)
    return {
        "now": cluster.sim.now,
        "rpc.retransmissions": sum(c.retransmissions for c in rpc_clients),
        "rpc.calls_completed": sum(c.calls_completed for c in rpc_clients),
        "rpc.duplicates": sum(
            s.duplicates_dropped + s.duplicates_replayed for s in rpc_servers
        ),
        "net.packets_delivered": cluster.net.packets_delivered,
        "net.bytes_delivered": cluster.net.bytes_delivered,
        "net.packets_dropped": cluster.net.packets_dropped,
        "core.attr_hits": sum(p.attr_cache.hits for p in proxies),
        "core.attr_misses": sum(p.attr_cache.misses for p in proxies),
        "core.cpu_busy": sum(p.host.cpu.busy_time() for p in proxies),
        "core.cpu_slots": sum(p.host.cpu.capacity for p in proxies),
        "dirsvc.cpu_busy": sum(d.host.cpu.busy_time() for d in cluster.dir_servers),
        "dirsvc.cpu_slots": sum(d.host.cpu.capacity for d in cluster.dir_servers),
        "smallfile.cache_hits": sum(s.cache.hits for s in cluster.sf_servers),
        "smallfile.cache_misses": sum(s.cache.misses for s in cluster.sf_servers),
        "storage.cache_hits": sum(n.cache.hits for n in cluster.storage_nodes),
        "storage.cache_misses": sum(n.cache.misses for n in cluster.storage_nodes),
        "storage.disk_busy": sum(d.arm.busy_time() for d in disks),
        "storage.disk_slots": sum(d.arm.capacity for d in disks),
        "storage.disk_peak_queue": max((d.arm.peak_queue for d in disks), default=0),
        "storage.disk_ops": sum(d.reads + d.writes for d in disks),
        "wal.syncs": sum(log.syncs for log in logs),
        "wal.bytes_logged": sum(log.bytes_logged for log in logs),
    }


_SLOT_KEYS = ("core.cpu_slots", "dirsvc.cpu_slots", "storage.disk_slots")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sim_counters(windows) -> Dict[str, float]:
    """The simulated-clock layer metrics over the timed phase.

    ``windows`` holds one (before, after) snapshot pair per cluster the
    workload ran; counts add up across clusters, utilisations are busy
    time over capacity time, and the peak queue is the maximum.
    """
    total: Dict[str, float] = {}
    for before, after in windows:
        elapsed = after["now"] - before["now"]
        for key, value in after.items():
            if key == "storage.disk_peak_queue":
                total[key] = max(total.get(key, 0), value)
            elif key in _SLOT_KEYS:
                total[key] = total.get(key, 0.0) + value * elapsed
            else:
                total[key] = total.get(key, 0) + value - before[key]
    out = {
        key: total[key] for key in (
            "rpc.retransmissions", "rpc.calls_completed", "rpc.duplicates",
            "net.packets_delivered", "net.bytes_delivered",
            "net.packets_dropped",
        )
    }
    out["core.attr_hit_ratio"] = _ratio(
        total["core.attr_hits"],
        total["core.attr_hits"] + total["core.attr_misses"],
    )
    out["core.cpu_util"] = _ratio(total["core.cpu_busy"], total["core.cpu_slots"])
    out["dirsvc.cpu_util"] = _ratio(
        total["dirsvc.cpu_busy"], total["dirsvc.cpu_slots"]
    )
    for layer in ("smallfile", "storage"):
        hits = total[f"{layer}.cache_hits"]
        out[f"{layer}.cache_hit_ratio"] = _ratio(
            hits, hits + total[f"{layer}.cache_misses"]
        )
    out["storage.disk_util"] = _ratio(
        total["storage.disk_busy"], total["storage.disk_slots"]
    )
    for key in ("storage.disk_peak_queue", "storage.disk_ops",
                "wal.syncs", "wal.bytes_logged"):
        out[key] = total[key]
    out["sim.elapsed_s"] = total["now"]
    return out


# -- workloads ------------------------------------------------------------

class Case:
    """One workload instance: fresh clusters, fixed inputs from the seed."""

    name = ""

    def __init__(self, seed: int, traced: bool = False):
        self.traced = traced
        self.rng = random.Random(f"{self.name}/{seed}")
        self.clusters: List = []
        self.clients: List = []
        self.sim_events = 0
        self.model: Dict[str, object] = {}  # modelled outputs (fingerprint)

    def cluster(self, params: ClusterParams):
        cluster = build(ClusterSpec(params=params, trace=self.traced))
        # SliceCluster attaches a tracer on its own when REPRO_TRACE is set;
        # the runner clears it, and this guards the runner.
        if (cluster.tracer is not None) != self.traced:
            raise RuntimeError(
                f"{self.name}: tracer attached={cluster.tracer is not None}, "
                f"expected {self.traced}"
            )
        self.clusters.append(cluster)
        return cluster

    def client(self, cluster, index: int):
        client, _proxy = cluster.add_client(f"c{index}", port=700 + index)
        self.clients.append(client)
        return client

    def drive(self, cluster, gen):
        value, steps = drive(cluster.sim, gen, self.name)
        self.sim_events += steps
        return value

    def ops_sent(self) -> int:
        return sum(client.ops_sent for client in self.clients)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Raise if the outputs are wrong.  Traced runs replay every
        invariant inside the timed phase, see :meth:`check_traces`."""

    def check_traces(self, **options) -> None:
        for cluster in self.clusters:
            violations = TraceChecker(cluster.tracer).violations(**options)
            if violations:
                raise RuntimeError(
                    f"{self.name}: {len(violations)} trace invariant "
                    f"violations, first: {violations[0]}"
                )
        self.model["trace_digest"] = [c.tracer.digest() for c in self.clusters]


class BulkDd(Case):
    """Single-client dd write then read on 8 storage nodes, unmirrored and
    mirrored, checksums off as in Table 2."""

    name = "bulk_dd"
    FILE_BYTES = 16 << 20
    # Below the per-node share of the file (FILE_BYTES / 8), so the read
    # pass reaches the disk model.
    NODE_CACHE_BYTES = 1 << 20

    def setup(self):
        self.streams = []
        for mirror in (False, True):
            cluster = self.cluster(ClusterParams(
                num_storage_nodes=8,
                num_dir_servers=1,
                num_sf_servers=2,
                verify_checksums=False,
                mirror_files=mirror,
                storage=StorageNodeParams(cache_bytes=self.NODE_CACHE_BYTES),
            ))
            client = self.client(cluster, 0)
            self.streams.append(
                (mirror, cluster, client, self.rng.randrange(1 << 16))
            )

    def run(self):
        for mirror, cluster, client, pattern in self.streams:
            fh, wrote = self.drive(cluster, dd_write(
                client, cluster.root_fh, "dd.bin", self.FILE_BYTES, seed=pattern,
            ))
            read = self.drive(cluster, dd_read(
                client, fh, self.FILE_BYTES, verify_seed=pattern,
            ))
            label = "mirrored" if mirror else "plain"
            self.model[f"{label}.write_mb_s"] = wrote.mb_per_second
            self.model[f"{label}.read_mb_s"] = read.mb_per_second
            self.model[f"{label}.bytes"] = [wrote.nbytes, read.nbytes]
        if self.traced:
            self.check_traces()

    def check(self):
        # dd_read(verify_seed=...) already compared the read-back content
        # with the written pattern; here only the lengths remain.
        for label in ("plain", "mirrored"):
            if self.model[f"{label}.bytes"] != [self.FILE_BYTES] * 2:
                raise NfsError(5, f"{label} dd moved {self.model[f'{label}.bytes']}")


class Untar(Case):
    """Two untar processes on two directory servers, mkdir_p=1.0,
    checksums on."""

    name = "untar"
    ENTRIES = 400
    PROCS = 2

    def setup(self):
        cluster = self.cluster(ClusterParams(
            num_storage_nodes=2,
            num_dir_servers=2,
            num_sf_servers=1,
            dir_logical_sites=16,
            sf_logical_sites=4,
            mkdir_p=1.0,
            verify_checksums=True,
        ))
        spec = UntarSpec(total_entries=self.ENTRIES)
        self.workloads = [
            UntarWorkload(
                self.client(cluster, i), cluster.root_fh, spec,
                prefix=f"p{i}", seed=self.rng.randrange(1 << 31),
            )
            for i in range(self.PROCS)
        ]

    def run(self):
        cluster = self.clusters[0]
        sim = cluster.sim

        def all_procs():
            yield sim.all_of([sim.process(w.run()) for w in self.workloads])

        self.drive(cluster, all_procs())
        self.model["proc_elapsed_s"] = [w.elapsed for w in self.workloads]
        self.model["ops_issued"] = [w.ops_issued for w in self.workloads]
        if self.traced:
            self.check_traces()

    def check(self):
        # UntarWorkload raises NfsError on any failed create or mkdir.
        for w in self.workloads:
            if w.entries_created != len(w.plan):
                raise NfsError(
                    5, f"{w.prefix}: {w.entries_created}/{len(w.plan)} entries"
                )


class SfsMix(Case):
    """The SFS97 op mix against Slice-4 below its knee."""

    name = "sfs_mix"
    NUM_FILES = 500
    CACHE_BYTES = 1 << 20  # per server: the file set is larger than all caches
    OFFERED = 3500.0
    PROCS = 192
    CLIENT_HOSTS = 4
    WARMUP = 0.25
    WINDOW = 0.75

    def setup(self):
        cluster = self.cluster(ClusterParams(
            num_storage_nodes=4,
            num_dir_servers=1,
            num_sf_servers=2,
            mkdir_p=1.0,
            dir_logical_sites=16,
            sf_logical_sites=8,
            storage=StorageNodeParams(cache_bytes=self.CACHE_BYTES, num_disks=1),
            smallfile=SmallFileParams(cache_bytes=self.CACHE_BYTES),
        ))
        for i in range(self.CLIENT_HOSTS):
            self.client(cluster, i)
        spec = FilesetSpec(
            num_files=self.NUM_FILES,
            num_dirs=max(5, self.NUM_FILES // 30),
            num_symlinks=max(5, self.NUM_FILES // 50),
            seed=self.rng.randrange(1 << 31),
        )
        self.fileset = self.drive(
            cluster, build_fileset(self.clients[0], cluster.root_fh, spec)
        )
        caches = self.CACHE_BYTES * (
            len(cluster.storage_nodes) + len(cluster.sf_servers)
        )
        if self.fileset.total_bytes <= caches:
            raise ValueError(
                f"file set of {self.fileset.total_bytes} B fits the "
                f"{caches} B of caches"
            )
        self.config = SfsConfig(
            offered_load=self.OFFERED,
            num_procs=self.PROCS,
            warmup=self.WARMUP,
            window=self.WINDOW,
            fileset=spec,
            seed=self.rng.randrange(1 << 15),
        )

    def run(self):
        cluster = self.clusters[0]
        sfs = SfsRun(cluster.sim, self.clients, cluster.root_fh, self.config)
        sfs.fileset = self.fileset
        self.result = self.drive(cluster, sfs.execute_with_existing())
        r = self.result
        self.model.update({
            "fileset_bytes": self.fileset.total_bytes,
            "iops": r.achieved_iops,
            "mean_latency_ms": r.mean_latency_ms,
            "p95_latency_ms": r.p95_latency_ms,
            "ops_completed": r.ops_completed,
            "errors": r.errors,
            "per_op_counts": r.per_op_counts,
        })
        if self.traced:
            # Generators are interrupted at the end of the window, so some
            # exchanges legitimately never see their reply.
            self.check_traces(require_replies=False)

    def check(self):
        if self.result.errors or not self.result.ops_completed:
            raise NfsError(
                5, f"sfs: {self.result.errors} errors, "
                   f"{self.result.ops_completed} completed"
            )


#: workload name -> (case class, traced)
CASES = {
    "bulk_dd": (BulkDd, False),
    "untar": (Untar, False),
    "untar_traced": (Untar, True),
    "sfs_mix": (SfsMix, False),
}
