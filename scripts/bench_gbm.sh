#!/usr/bin/env bash
# Records the GBM training/prediction baseline into BENCH_gbm.json (one
# JSON line per bench group, small + medium scales). Groups cover fit,
# the quantized serving path (gbm_predict_batch — the trajectory group),
# and the per-path attribution benches (reference walk, single-row,
# raw batch), plus a gbm_predict_summary line that records
# host_cpus so numbers are always read against the hardware that
# produced them. Re-run after any change to the lhr-gbm hot path and
# commit the refreshed file so the perf trajectory stays in history.
#
# Usage: scripts/bench_gbm.sh [output-file]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_gbm.json}"

cargo build --release --offline -p lhr-bench --bin gbm

: > "$out"
for scale in small medium; do
  echo "==> gbm bench, scale=$scale"
  LHR_BENCH_JSON="$out" \
    cargo run --release --offline -p lhr-bench --bin gbm -- --scale "$scale"
done

echo "wrote $out"
