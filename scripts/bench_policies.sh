#!/usr/bin/env bash
# Appends one per-policy handle() cost row to BENCH_policies.json: a
# `policy_ns_per_op` JSON line (mean ns per request for every roster policy
# on the fixed-seed small IRM trace) stamped with the commit it measured
# (`+dirty` when the working tree differs from it) and, by the bench
# itself, with `host_cpus` — the loop is single-threaded, so the figure is
# per-core cost. Earlier rows stay: the file is the history.
# Re-run after any change to a policy hot path (hashing, cache stores,
# eviction sampling), on the same host as the row you compare against, and
# commit the file.
#
# Usage: scripts/bench_policies.sh [output-file]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_policies.json}"

cargo build --release --offline -p lhr-bench --bin policies

commit="$(git rev-parse --short HEAD)"
git diff --quiet HEAD || commit="$commit+dirty"

run="$(mktemp)"
trap 'rm -f "$run"' EXIT
echo "==> policies bench, scale=small, commit $commit"
LHR_BENCH_JSON="$run" \
  cargo run --release --offline -p lhr-bench --bin policies -- --scale small

row='{"group":"policy_ns_per_op",'
grep -F "$row" "$run" | sed "s/^$row/$row\"commit\":\"$commit\",/" >> "$out"

echo "appended the $commit row to $out"
