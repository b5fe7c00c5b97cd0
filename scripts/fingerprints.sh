#!/usr/bin/env bash
# Bit-identity gate for host-only changes: runs the perfbench fingerprint
# loop (perfbench/README.md) for seeds 1 and 2 on <rev>, checked out in a
# temporary git worktree, and on this working tree, then diffs the two.
# Usage: scripts/fingerprints.sh <rev>    Exits non-zero on any difference.
set -euo pipefail
rev=${1:?usage: scripts/fingerprints.sh <rev>}
here=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; git -C "$here" worktree prune' EXIT
git -C "$here" worktree add --quiet --detach "$tmp/base" "$rev"

fingerprints() {
  for seed in 1 2; do
    for w in bulk_dd untar untar_traced sfs_mix; do
      python3 "$1/perfbench/run.py" --workload "$w" --seed "$seed" --seconds 1 \
        | grep '^fingerprint '
    done
  done
}

fingerprints "$tmp/base" > "$tmp/base.txt"
fingerprints "$here" > "$tmp/head.txt"
diff "$tmp/base.txt" "$tmp/head.txt"
