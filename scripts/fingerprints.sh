#!/usr/bin/env bash
# Bit-identity gate for host-only changes: runs the perfbench fingerprint
# loop (perfbench/README.md) for seeds 1 and 2 on <rev>, exported into a
# temporary directory, and on this working tree, then diffs the two.  It
# also compares the traced Tracer.digest of bulk_dd and sfs_mix, the
# workloads that reach the µproxy's bulk, split, commit, fixup and readdir
# paths (untar_traced covers only the name path).  Last it compares the
# ChaosReport digests of the seeded chaos matrix (the untar, bulk and mixed
# plans x SEEDS of tests/test_chaos.py, run as that tree's tests run them),
# the only runs that reach the kernel's interrupt and fault paths.  Tied
# timers in all of these runs commute: running the events due at one
# instant in another order can leave every digest unchanged.  So it also
# runs the seeded kernel-order programs of this tree's
# tests/test_sim_engine.py on both kernels and compares their traces.
# Usage: scripts/fingerprints.sh <rev>    Exits non-zero on any difference.
set -euo pipefail
rev=${1:?usage: scripts/fingerprints.sh <rev>}
here=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$here" archive "$rev" | tar -x -C "$tmp/base"

fingerprints() {
  for seed in 1 2; do
    for w in bulk_dd untar untar_traced sfs_mix; do
      python3 "$1/perfbench/run.py" --workload "$w" --seed "$seed" --seconds 1 \
        | grep '^fingerprint '
    done
    for w in bulk_dd sfs_mix; do  # one fresh interpreter each (perfbench/README.md)
      env -u REPRO_TRACE -u REPRO_TELEMETRY -u REPRO_BENCH_SCALE \
        PYTHONPATH="$1/src:$1/perfbench" python3 -c 'import sys; from cases import CASES
case = CASES[sys.argv[1]][0](int(sys.argv[2]), traced=True)
case.setup(); case.run()  # a traced run() ends with check_traces()
print("digest", *sys.argv[1:], *case.model["trace_digest"])' "$w" "$seed"
    done
  done
  env -u REPRO_TRACE -u REPRO_TELEMETRY -u REPRO_BENCH_SCALE \
    PYTHONPATH="$1/src:$1" python3 -c 'from repro.faults import ChaosHarness
from tests import test_chaos as t
class DigestHarness(ChaosHarness):
    def run(self, scenario):
        report = super().run(scenario)
        print("chaos", test.__name__, seed, report.digest)
        return report
t.ChaosHarness = DigestHarness
for test in (t.test_untar_under_combined_faults,
             t.test_bulk_io_under_combined_faults,
             t.test_mixed_ops_under_combined_faults):
    for seed in t.SEEDS:
        test(seed)'
  PYTHONPATH="$1/src:$here" python3 -c 'from tests import test_sim_engine as t
for seed in sorted(t.SEEDED_ORDER):
    print("kernel", seed, *t._program_fingerprint(seed))'
}

fingerprints "$tmp/base" > "$tmp/base.txt"
fingerprints "$here" > "$tmp/head.txt"
diff "$tmp/base.txt" "$tmp/head.txt"
