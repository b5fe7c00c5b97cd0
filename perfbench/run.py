"""Host-speed benchmark of the Slice simulator.

    python3 perfbench/run.py --workload untar --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

One invocation measures one workload.  It repeats the workload until
``--seconds`` of host time are used, each repetition in a fresh
single-threaded child interpreter that builds its clusters from the seeded
inputs, runs the workload, checks the outputs and reports.  The
repetitions run one after another, never two at once.  Every repetition
must produce the same simulated fingerprint.  ``--trace 0`` prints the
end-to-end host metrics (medians over the repetitions, host times scaled
to a reference host speed sampled through each repetition, see
hostspeed.py); ``--trace 1``
prints the per-layer metrics from a cProfile'd repetition plus
simulated-clock counters.  The last stdout line is one JSON object.

See perfbench/README.md for the workloads, metrics and fingerprints.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORKLOADS = ("bulk_dd", "untar", "untar_traced", "sfs_mix")
DEFAULT_SEED = 1
#: variables that change what the program does behind the benchmark's back
#: (REPRO_TRACE makes every SliceCluster attach a tracer)
PINNED_ENV = ("REPRO_TRACE", "REPRO_TELEMETRY", "REPRO_BENCH_SCALE")
MIN_REPS = 3
MIN_TRACE_REPS = 2
#: one repetition: as measured, cProfile'd, or with tracing flipped
REP_KINDS = ("plain", "profiled", "flipped")

E2E_UNITS = {"setup_s": "s", "run_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB"}
#: simulated-clock layer metrics, copied from the fingerprint
SIM_CLOCK_UNITS = {
    "rpc.retransmissions": "count",
    "rpc.calls_completed": "count",
    "rpc.duplicates": "count",
    "net.packets_delivered": "count",
    "net.bytes_delivered": "B",
    "net.packets_dropped": "count",
    "core.attr_hit_ratio": "ratio",
    "core.cpu_util": "ratio",
    "dirsvc.cpu_util": "ratio",
    "smallfile.cache_hit_ratio": "ratio",
    "storage.cache_hit_ratio": "ratio",
    "storage.disk_util": "ratio",
    "storage.disk_peak_queue": "count",
    "storage.disk_ops": "count",
    "wal.syncs": "count",
    "wal.bytes_logged": "B",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--one-rep", choices=REP_KINDS, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- one repetition, in a child interpreter ---------------------------------

def import_repro() -> Path:
    """Import the program from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"perfbench: imported repro from {origin}, not {SRC}")
    return SRC.resolve() / "repro"


def one_rep(workload: str, seed: int, kind: str) -> dict:
    """Set up, run and check the workload once; the report as a dict.

    Plain and flipped repetitions sample the host speed throughout and
    report ``setup_s``/``run_s`` scaled to the reference host (see
    hostspeed.py) beside the measured ``wall_setup_s``/``wall_run_s``.
    The profiled repetition takes no samples and reports wall time only.
    """
    repro_root = import_repro()
    from cases import CASES, sim_counters, snapshot
    from hostspeed import HostSpeed

    case_cls, traced = CASES[workload]
    if kind == "flipped":
        traced = not traced
    profiler = cProfile.Profile() if kind == "profiled" else None
    speed = None if profiler is not None else HostSpeed()
    report = {"ok": False, "setup_s": 0.0, "run_s": 0.0, "ops": 0}
    case = case_cls(seed, traced=traced)
    if speed is not None:
        speed.start()
    try:
        t0 = time.perf_counter()
        case.setup()
        t1 = time.perf_counter()
        before = [snapshot(c) for c in case.clusters]
        ops_before = case.ops_sent()
        events_before = case.sim_events
        if profiler is not None:
            profiler.enable()
        t2 = time.perf_counter()
        try:
            case.run()
        finally:
            t3 = time.perf_counter()
            if profiler is not None:
                profiler.disable()
            report["ops"] = case.ops_sent() - ops_before
        case.check()
    except Exception:  # reported as a failed repetition
        traceback.print_exc()
        return report
    finally:
        if speed is not None:
            speed.stop()
    report["wall_setup_s"] = t1 - t0
    report["wall_run_s"] = t3 - t2
    if speed is not None:
        scale = speed.scale()
        report["wall_setup_s"] -= speed.spent(t0, t1)
        report["wall_run_s"] -= speed.spent(t2, t3)
        report["setup_s"] = report["wall_setup_s"] * scale
        report["run_s"] = report["wall_run_s"] * scale
        report["speed_scale"] = scale
    fingerprint = dict(case.model)
    fingerprint.update(
        sim_counters(list(zip(before, [snapshot(c) for c in case.clusters])))
    )
    fingerprint["sim.events"] = case.sim_events - events_before
    report.update(
        ok=True,
        fingerprint=fingerprint,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if profiler is not None:
        from layers import rollup

        stats = pstats.Stats(profiler)
        report["self_s"], report["calls"], report["profiled_steps"] = rollup(
            stats, repro_root
        )
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{workload}-seed{seed}.prof"
        stats.dump_stats(path)
        report["profile_path"] = str(path.relative_to(ROOT))
    return report


def spawn_rep(workload: str, seed: int, kind: str) -> dict:
    """One repetition in a fresh interpreter; waits for it to end."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--one-rep", kind,
    ]
    start = time.perf_counter()
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = {"ok": False, "setup_s": 0.0, "run_s": 0.0, "ops": 0}
    if child.returncode:
        report["ok"] = False
    report["wall_s"] = time.perf_counter() - start
    return report


def repeat(workload, seed, kind, seconds, min_reps):
    """Repetitions until the next one would overrun ``seconds``."""
    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < min_reps or (
        time.perf_counter() + statistics.median(r["wall_s"] for r in reps)
        <= deadline
    ):
        reps.append(spawn_rep(workload, seed, kind))
        if not reps[-1]["ok"]:
            break
    return reps


# -- aggregation and reporting ----------------------------------------------

def digest(fingerprint) -> str:
    blob = json.dumps(fingerprint, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def median(reps, key) -> float:
    return statistics.median(r[key] for r in reps)


def verdict(workload, seed, reps):
    """(correct, attempted, failed, fingerprint) across repetitions."""
    attempted = max(1, sum(r["ops"] for r in reps))
    prints = {digest(r["fingerprint"]) for r in reps if r["ok"]}
    correct = all(r["ok"] for r in reps) and len(prints) == 1
    if len(prints) > 1:
        print(f"perfbench: {workload} seed={seed}: repetitions disagree "
              f"on the simulated outputs: {sorted(prints)}", file=sys.stderr)
    if not correct:
        return False, attempted, attempted, {}
    fingerprint = reps[0]["fingerprint"]
    print(f"fingerprint {workload} seed={seed} {digest(fingerprint)}")
    print(f"fingerprint-detail {json.dumps(fingerprint, sort_keys=True)}")
    return True, attempted, 0, fingerprint


def emit(correct, attempted, failed, metrics):
    """Human-readable table, then the JSON result as the last line."""
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def end_to_end(workload, seed, seconds) -> bool:
    reps = repeat(workload, seed, "plain", seconds, MIN_REPS)
    correct, attempted, failed, _ = verdict(workload, seed, reps)
    ok = [r for r in reps if r["ok"]]
    metrics = {}
    if ok:
        values = {
            "setup_s": median(ok, "setup_s"),
            "run_s": median(ok, "run_s"),
            "ops_per_s": statistics.median(r["ops"] / r["run_s"] for r in ok),
            "peak_rss_mb": median(ok, "peak_rss_mb"),
        }
        metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
    print(f"{workload} seed={seed}: {len(reps)} repetitions, "
          f"ops attempted={attempted} failed={failed}")
    print("run_s per repetition, scaled/wall: " + " ".join(
        f"{r['run_s']:.3f}/{r.get('wall_run_s', 0.0):.3f}" for r in reps
    ))
    if ok:
        print(f"wall medians: setup_s={median(ok, 'wall_setup_s'):.4f} "
              f"run_s={median(ok, 'wall_run_s'):.4f}; host speed scale "
              f"median={median(ok, 'speed_scale'):.3f}")
    emit(correct, attempted, failed, metrics)
    return correct


def per_layer(workload, seed, seconds) -> bool:
    from layers import LAYERS

    reps = repeat(workload, seed, "plain", seconds / 3, MIN_TRACE_REPS)
    flipped = repeat(workload, seed, "flipped", seconds / 3, MIN_TRACE_REPS)
    profiled = spawn_rep(workload, seed, "profiled")
    correct, attempted, failed, fingerprint = verdict(
        workload, seed, reps + [profiled]
    )
    correct = correct and all(r["ok"] for r in flipped) and (
        profiled["profiled_steps"] == fingerprint["sim.events"]
    )
    metrics = {}
    if correct:
        run_s = median(reps, "run_s")
        flipped_s = median(flipped, "run_s")
        traced_s, plain_s = (
            (run_s, flipped_s) if workload == "untar_traced" else (flipped_s, run_s)
        )
        self_s, calls = profiled["self_s"], profiled["calls"]
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = (self_s[layer], "s")
            metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics["profile.overhead"] = (
            profiled["wall_run_s"] / median(reps, "wall_run_s"), "ratio"
        )
        metrics["sim.events"] = (fingerprint["sim.events"], "count")
        metrics["sim.events_per_s"] = (fingerprint["sim.events"] / run_s, "1/s")
        metrics["obs.overhead_ratio"] = (traced_s / plain_s, "ratio")
        for key, unit in SIM_CLOCK_UNITS.items():
            metrics[key] = (fingerprint[key], unit)
        total = sum(self_s.values()) or 1.0
        print(f"{workload} seed={seed}: profiled wall run_s="
              f"{profiled['wall_run_s']:.3f}, unprofiled wall median="
              f"{median(reps, 'wall_run_s'):.3f}; self-time shares:")
        for layer in self_s:
            print(f"  {layer:<10} {100 * self_s[layer] / total:6.2f}%  "
                  f"{calls[layer]:>10} calls")
        print(f"per-function profile: {profiled['profile_path']}")
    emit(correct, attempted, failed, metrics)
    return correct


def run_all(args) -> int:
    """Each workload in turn, through this same command."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        print(f"== {workload}", flush=True)
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        status = status or child.returncode
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return status or (0 if summary["correct"] else 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in PINNED_ENV:
        os.environ.pop(var, None)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.one_rep:
        print(json.dumps(one_rep(args.workload, args.seed, args.one_rep)))
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        ok = per_layer(args.workload, args.seed, args.seconds)
    else:
        ok = end_to_end(args.workload, args.seed, args.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
