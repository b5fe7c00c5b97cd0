#!/usr/bin/env bash
# Paired host-speed comparison of <rev> against this working tree: runs
# perfbench/run.py on each in turn, <rev> first on odd pairs, and prints for
# every end-to-end metric of BENCHMARK.json both medians, the q1-q3 of the
# <rev> runs and how many pairs this tree won.  A gain holds when the tree
# wins nearly every pair and its median lies beyond the <rev> q1-q3 spread.
# Usage: scripts/abpairs.sh <rev> <workload> <pairs> [seed] [seconds]
set -euo pipefail
rev=${1:?usage: scripts/abpairs.sh <rev> <workload> <pairs> [seed] [seconds]}
workload=${2:?workload}; pairs=${3:?pairs (at least 2)}; seed=${4:-1}; seconds=${5:-30}
here=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$here" archive "$rev" | tar -x -C "$tmp/base"

one() {  # <tree> <label>: one run; its result line goes to <label>.jsonl
  python3 "$1/perfbench/run.py" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 | tail -n 1 >> "$tmp/$2.jsonl"
}
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then one "$tmp/base" base; one "$here" head
  else one "$here" head; one "$tmp/base" base; fi
done
python3 - "$tmp" "$here/BENCHMARK.json" <<'EOF'
import json, statistics, sys
runs = {k: [json.loads(l) for l in open(f"{sys.argv[1]}/{k}.jsonl")] for k in ("base", "head")}
print("failed ops: base", sum(r["failed"] for r in runs["base"]), "head", sum(r["failed"] for r in runs["head"]))
for m in json.load(open(sys.argv[2]))["end_to_end"]:
    b, h = ([r["metrics"][m["name"]]["value"] for r in runs[k]] for k in ("base", "head"))
    sign = 1 if m["better"] == "lower" else -1
    wins = sum(sign * (x - y) > 0 for x, y in zip(b, h))
    q1, _, q3 = statistics.quantiles(b, n=4, method="inclusive")
    mb, mh = statistics.median(b), statistics.median(h)
    print(f"{m['name']:<12} base {mb:.6g} [q1-q3 {q1:.6g}-{q3:.6g}]  head {mh:.6g}"
          f" ({100 * (mh - mb) / mb:+.1f}%)  head wins {wins}/{len(b)}")
EOF
