#!/usr/bin/env bash
# Tier-1 verification gate. Runs entirely offline — the workspace has no
# external dependencies, so an empty cargo registry is fine.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> no unsafe: every crate root forbids it and the word appears nowhere in the sources"
# tests/ (alloc.rs installs a counting GlobalAlloc; peak_heap.rs and ingest_heap.rs install
# the one in tests/common/heap.rs) and the frozen benchmark/ are outside this set.
for root in crates/*/src/lib.rs crates/*/src/main.rs src/lib.rs; do
  if ! grep -q '^#!\[forbid(unsafe_code)\]' "$root"; then
    echo "$root lacks #![forbid(unsafe_code)]" >&2
    exit 1
  fi
done
if grep -rnw unsafe crates/*/src src; then
  echo "\`unsafe\` under crates/*/src or src/ (see the lines above)" >&2
  exit 1
fi

echo "==> kept deleted: three cache stores, one store contract, no hand-rolled policy table, one way for windows to reach the recorder, one helper crew, one way to retrain, no per-window object map, one window log, no scattered partition order, no shadow copies, one serve-path contract, one window accumulator, one record serializer, no held training set, one GBM scoring path, one CSV read path, one size-check loop, one hint-expiry path, no NaN-time segment"
# SampleStore (crates/sim/src/store.rs) holds the only swap_remove fix-up:
# LhrCache and the threshold shadow kept their own until they moved onto
# it. Everything above a file's first #[cfg(test)] is non-test code.
for file in crates/core/src/*.rs crates/policies/src/*.rs crates/policies/src/*/*.rs; do
  if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$file" \
      | grep swap_remove; then
    echo "swap_remove outside lhr_sim::store (see the lines above)" >&2
    exit 1
  fi
done
# Every byte-bounded cache — a policy, LHR, a bound — stands on one of the
# three stores (DESIGN.md "Cache stores") and keeps no list or ordered set
# of its own: the list handles and the BTreeSet are named (whole words) in
# lhr_sim::store and lhr_policies::util only.
for file in $(find crates/*/src -name '*.rs' ! -path crates/sim/src/store.rs \
    ! -path 'crates/policies/src/util/*' | sort); do
  if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$file" \
      | grep -wE 'Handle|BTreeSet'; then
    echo "a list handle or an ordered set outside the cache stores (see the lines above)" >&2
    exit 1
  fi
done
# A policy's byte accounting and freshness stamps are its store's
# (lhr_sim::CacheStore): CachePolicy reads them through `store()`, so no
# policy file defines its own forwards.
for file in crates/policies/src/*.rs crates/core/src/*.rs; do
  if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$file" \
      | grep -E 'fn (used_bytes|admitted_at|restamp)\b'; then
    echo "a policy forwards its store's accounting or stamps (see the lines above)" >&2
    exit 1
  fi
done
# The serving tally's streaming mode and what existed only for it.
if grep -rnE 'stream_pending|take_done|fills_window|stamp_window' crates; then
  echo "a name of the deleted streaming hand-over under crates/ (see the lines above)" >&2
  exit 1
fi
# The bench JSON sink, the observed-bound wrapper, the inline-retrain knob
# and the newtype shape of impl_json! (whole words, so a longer identifier
# that contains one is not refused).
# The second policy-constructor layer (the roster builds every policy),
# the configurable latency model (its four numbers are constants), the
# working-set profile (the miss-ratio curve sizes a cache) and the
# single-list store (a one-segment SegmentedStore).
if grep -rnwE 'LHR_BENCH_JSON|ObservedBound|background_retrain|impl_json!\(newtype|PolicyFactory|all_factories|run_grid|LatencyModel|working_set_profile|peak_working_set_bytes|WorkingSetPoint|LruStore' \
    crates src tests examples; then
  echo "a deleted name is back (see the lines above)" >&2
  exit 1
fi
# The helper pools `lhr_util::sync::crew` replaced (the CSV reader's pipe,
# the GBM grower's wake channels and level lock), gbm's own fan-out module
# and the second spawn-cost rule.
if grep -rnwE 'CloseOnDrop|UNPOISONED|VALIDATE_MIN_SHARE' crates src tests examples \
    || grep -rn 'mod parallel' crates/gbm; then
  echo "a name of the deleted helper pools is back (see the lines above)" >&2
  exit 1
fi
# LHR's background trainer and the cancellable fit it ran: a retraining is
# fit on the serving thread at the window edge it is pinned to.
if grep -rnwE 'ShadowTrainer|fit_unless' crates src tests examples; then
  echo "a name of the deleted background trainer is back (see the lines above)" >&2
  exit 1
fi
# A window is its request log: the caller says whether a request is its
# object's first in the window, so the tracker keeps no per-object map.
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/core/src/window.rs \
    | grep -wE 'FastMap|FastSet'; then
  echo "a per-object map in lhr::window (see the lines above)" >&2
  exit 1
fi
# The tracker holds one log: the next window reopens on the closed one's
# buffer, so no second log waits beside it for the next edge.
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/core/src/window.rs \
    | grep -w 'spare'; then
  echo "a spare log in lhr::window (see the lines above)" >&2
  exit 1
fi
# The partition regroups the trace in place, each shard's requests one
# contiguous run, so no request-order index is walked and no block is
# gathered out of a scattered trace.
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/sim/src/shard.rs \
    | grep -E '\bGATHER\b|\border:'; then
  echo "the scattered partition order in lhr_sim::shard (see the lines above)" >&2
  exit 1
fi
# LHR's threshold shadows read the window's requests, their probabilities
# and the live store as LHR holds them: no per-request shadow record and
# no shadow entry point beside ThresholdEstimator::update. The export
# marks exemplars through exemplar_marks alone.
if grep -rnE 'ShadowRequest|shadow_hit_ratio|mark_exemplars' crates; then
  echo "a name of the deleted shadow copies or exemplar setter is back (see the lines above)" >&2
  exit 1
fi
# The serve path trusts the hit_check contract (Some only for a cached id,
# and then a Hit), so the miss path takes no compute time decided before it.
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/proto/src/server.rs \
    | grep -E '\bdecided *:'; then
  echo "a decided-admission parameter in lhr_proto::server (see the lines above)" >&2
  exit 1
fi
# The window series has one feeding path, SeriesAcc::observe (through
# lhr_sim::ledger::Ledger): the per-request path and its sample type are
# gone.
if grep -rnwE 'ReqSample|on_request|on_evictions|finish_observed' crates src tests examples; then
  echo "a name of the deleted per-request window path is back (see the lines above)" >&2
  exit 1
fi
# An export record is written by ObsRecord::write_line alone: no Json-tree
# writer for a record type, and no tag helper for one.
if grep -rnE 'impl ToJson for (ObsRecord|Event|EventKind|TraceRecord|TraceStep|LogHistogram)\b|fn tagged\b' \
    crates src tests examples; then
  echo "a Json-tree writer of an export record is back (see the lines above)" >&2
  exit 1
fi
# A scheduled LHR retraining holds its due window only: the edge that
# installs it builds the training set from the labeled history.
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/core/src/cache.rs \
    | grep -E 'pending:.*Dataset'; then
  echo "a training set held in LhrCache::pending (see the lines above)" >&2
  exit 1
fi
# A Gbm always holds its padded layout: fit and load refuse a forest the
# kernel cannot lay out, so no model falls back to the per-tree walk.
if grep -rn 'Option<FlatForest>' crates/gbm/src; then
  echo "an optional GBM scoring layout (see the lines above)" >&2
  exit 1
fi
# The CSV reader goes through fan_out at any core count (a crew of no
# helpers on one core), and Trace::validate's size check walks the class
# mask at one class too.
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/trace/src/io.rs \
    | grep -E 'threads > 1'; then
  echo "a second CSV read path in lhr_trace::io (see the lines above)" >&2
  exit 1
fi
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/trace/src/request.rs \
    | grep -E 'classes == 1'; then
  echo "a one-class shortcut in Trace::validate (see the lines above)" >&2
  exit 1
fi
# Trace time ascends and is never NaN: the fleet's hint expiry reads its
# publish log alone (never dropped, no table scan), and the liveness
# timeline keeps no segment for a NaN time.
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/proto/src/fleet.rs \
    | grep -E 'log = None|\.retain\(|if t\.is_nan\(\)'; then
  echo "a second hint-expiry path or a NaN-time segment in lhr_proto::fleet (see the lines above)" >&2
  exit 1
fi
# Threads are spawned, woken and counted in lhr_util::sync alone (claim_each,
# crew, cores).
for file in $(find crates/*/src -name '*.rs' ! -path crates/util/src/sync.rs | sort); do
  if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$file" \
      | grep -E 'thread::scope|thread::spawn|Condvar|mpsc|available_parallelism'; then
    echo "a thread primitive outside lhr_util::sync (see the lines above)" >&2
    exit 1
  fi
done

echo "==> cargo build --release (warnings are errors)"
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --offline --workspace
# Nothing else compiles the four microbench targets.
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --offline -p lhr-bench --benches

echo "==> cargo test"
cargo test -q --offline --workspace

echo "==> root test suite, one test at a time (--test-threads=1)"
# The suite above ran each binary's tests on parallel threads; running them
# serially as well makes an order- or parallelism-dependent test (a shared
# counter, a leaked global) fail here under one of the two schedules.
cargo test -q --offline -- --test-threads=1

echo "==> frozen benchmark package builds and tests against the crates"
# benchmark/ is a package of its own outside the workspace, so nothing above
# type-checks it; an API break against it must fail here, not in the
# pipeline that runs BENCHMARK.json. --locked: a dependency change in a
# crate it builds must fail here, not silently rewrite its Cargo.lock.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test -q --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> cargo test --doc"
cargo test -q --doc --offline --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> simulator, GBM and LHR goldens, layer agreement and the heap gate, optimized (Simulator::run / run_sharded vs tests/golden/sim, Gbm::fit vs tests/golden/gbm, LhrCache vs tests/golden/lhr-*.json, threads 1 2 8; 16 shards peak no higher than 2; LHR's later windows peak under its bootstrap window by half that window's row matrix; a 16-shard replay of an owned trace peaks under 5 B a request + 256 KiB above it; a CSV load holds ≤ 2 MiB beside its requests)"
# The workspace run above held the debug build to the same files; they
# were recorded by a release build, which is also what the CLI ships.
# peak_heap: a shard's state ends with its last request, so at one thread
# the heap's high-water mark does not grow with the shard count; and an LHR
# window's row matrix and request log live only while its edge reads them,
# so the windows after the bootstrap one peak well under it; and a replay
# frees the trace it is handed as its shards step past it, so it peaks at
# about the partition's u32 index above the trace.
# ingest_heap: the parallel CSV reader keeps a bounded number of chunks in
# flight.
cargo test -q --release --offline --test sim_golden --test layer_agreement --test peak_heap \
  --test gbm_golden --test lhr_golden --test ingest_heap

echo "==> CLI fault-preset smoke (--faults flaky)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
cargo run --release --offline -p lhr-cli -- generate \
  --kind zipf --objects 200 --requests 5000 --seed 7 --out "$smoke_dir/t.csv"
# Capture instead of piping into `grep -q`: grep exits at the first match,
# and the CLI then stops at its next line (quietly, exit 0) instead of
# finishing the run.
cargo run --release --offline -p lhr-cli -- server \
  --policy LRU --capacity 50MB --faults flaky "$smoke_dir/t.csv" \
  > "$smoke_dir/server.out"
grep -q "availability:" "$smoke_dir/server.out"

echo "==> ingest smoke (.csv and .bin readers agree; a lying .bin header is refused)"
# The release build above left the binary; running it directly keeps its
# own exit code (101 = panic, 134 = abort) visible.
lhr_cache="${CARGO_TARGET_DIR:-target}/release/lhr-cache"
# 200 000 requests (≈ 4 MB of CSV) are many chunks: the .csv side runs the
# parallel reader across its seams.
for ext in csv bin; do
  "$lhr_cache" generate --kind zipf --objects 200 --requests 200000 --seed 7 \
    --out "$smoke_dir/same.$ext" > /dev/null
  "$lhr_cache" stats "$smoke_dir/same.$ext" > "$smoke_dir/stats.$ext.out"
done
# Everything after the name line: the two readers loaded the same trace.
cmp <(tail -n +2 "$smoke_dir/stats.csv.out") <(tail -n +2 "$smoke_dir/stats.bin.out")
# A 16-byte file: valid magic, a record count of 2^60 - 1 (once a capacity
# overflow panic) or 2^44 (once an allocator abort), no payload.
printf 'LHRTRC01\xff\xff\xff\xff\xff\xff\xff\x0f' > "$smoke_dir/count-2e60.bin"
printf 'LHRTRC01\x00\x00\x00\x00\x00\x10\x00\x00' > "$smoke_dir/count-2e44.bin"
for hostile in count-2e60 count-2e44; do
  code=0
  "$lhr_cache" stats "$smoke_dir/$hostile.bin" \
    > /dev/null 2> "$smoke_dir/$hostile.err" || code=$?
  if [ "$code" -ne 1 ] || grep -q panicked "$smoke_dir/$hostile.err"; then
    echo "$hostile.bin: exit $code, expected one error line and exit 1:" >&2
    cat "$smoke_dir/$hostile.err" >&2
    exit 1
  fi
done

echo "==> CLI observability smoke (--obs + obs summarize)"
cargo run --release --offline -p lhr-cli -- simulate \
  --policy LHR --capacity 1MB --obs "$smoke_dir/obs.jsonl" \
  --obs-window 1000r --obs-deterministic true "$smoke_dir/t.csv"
cargo run --release --offline -p lhr-cli -- obs summarize "$smoke_dir/obs.jsonl" \
  > "$smoke_dir/summary.out"
grep -q "== obs summary ==" "$smoke_dir/summary.out"

echo "==> sharded-simulator determinism smoke (simulate --shards 8, --threads 1 4)"
# Same contract one layer down: `simulate` merges its shards in shard
# order, so the export carries no trace of the thread count.
for t in 1 4; do
  cargo run --release --offline -p lhr-cli -- simulate \
    --policy LHR --capacity 1MB --warmup 500 --shards 8 --threads "$t" \
    --obs "$smoke_dir/sim$t.jsonl" --obs-window 1000r --obs-deterministic true \
    "$smoke_dir/t.csv" > /dev/null
done
cmp "$smoke_dir/sim1.jsonl" "$smoke_dir/sim4.jsonl"
grep -q '"shards":8' "$smoke_dir/sim1.jsonl"

echo "==> threaded-engine determinism smoke (--threads 1 2 4)"
# The determinism contract (ARCHITECTURE.md): stable reports and
# deterministic --obs exports are byte-identical at any thread count.
for t in 1 2 4; do
  cargo run --release --offline -p lhr-cli -- server \
    --policy LHR --capacity 1MB --faults flaky --threads "$t" \
    --report "$smoke_dir/r$t.json" \
    --obs "$smoke_dir/e$t.jsonl" --obs-window 1000r --obs-deterministic true \
    "$smoke_dir/t.csv" > /dev/null
done
for t in 2 4; do
  cmp "$smoke_dir/r1.json" "$smoke_dir/r$t.json"
  cmp "$smoke_dir/e1.jsonl" "$smoke_dir/e$t.jsonl"
done

echo "==> freshness-stamp determinism smoke (one policy per cache store shape, --faults recovery, --threads 1 2 4)"
# The freshness stamp lives in the slot a policy's store keeps for the
# object (CacheStore's contract), so the determinism contract is per
# store: SegmentedStore with one segment (LRU) and with three (W-TinyLFU),
# SampleStore (Hyperbolic), OrderedStore (GDSF). The trace spans 1.67 h against the 1 h
# freshness lifetime and `recovery` puts an outage and a slow-start ramp in
# the middle of it, so stale serves, revalidations (restamps) and retries
# all fire — the run is refused below if they did not.
"$lhr_cache" generate --kind zipf --objects 2000 --requests 600000 --seed 11 \
  --out "$smoke_dir/fresh.bin" > /dev/null
for policy in LRU Hyperbolic W-TinyLFU GDSF; do
  for t in 1 2 4; do
    "$lhr_cache" server --policy "$policy" --capacity 60MB --faults recovery \
      --threads "$t" --report "$smoke_dir/fr-$policy-$t.json" \
      --obs "$smoke_dir/fe-$policy-$t.jsonl" --obs-window 50000r \
      --obs-deterministic true "$smoke_dir/fresh.bin" > /dev/null
  done
  for t in 2 4; do
    cmp "$smoke_dir/fr-$policy-1.json" "$smoke_dir/fr-$policy-$t.json"
    cmp "$smoke_dir/fe-$policy-1.jsonl" "$smoke_dir/fe-$policy-$t.jsonl"
  done
  if grep -q '"stale_served":0,\|"retries":0,' "$smoke_dir/fr-$policy-1.json"; then
    echo "$policy: the recovery run served nothing stale or retried nothing" >&2
    exit 1
  fi
done

echo "==> retrain determinism smoke (N-LHR and E-LHR, --threads 1 2 4)"
# N-LHR retrains every window, and LHR fits each retraining after the
# bootstrap at the next window edge, where it swaps the model in — so
# this run swaps models repeatedly while shards run on parallel workers.
# Reports and obs exports must still be byte-identical across thread
# counts. The trace is sized so every shard crosses several retraining
# windows (the LHR window floor is 4096 requests per shard). N-LHR scores
# at admission and renders rows lazily (the default path); E-LHR is the
# eager twin — every hit re-scored, every row rendered — with
# detection-gated retrains.
cargo run --release --offline -p lhr-cli -- generate \
  --kind syn-one --objects 500 --requests 40000 --seed 11 \
  --out "$smoke_dir/retrain.csv"
for policy in N-LHR E-LHR; do
  for t in 1 2 4; do
    cargo run --release --offline -p lhr-cli -- server \
      --policy "$policy" --capacity 1MB --shards 2 --threads "$t" \
      --report "$smoke_dir/nr-$policy-$t.json" \
      --obs "$smoke_dir/ne-$policy-$t.jsonl" --obs-window 4000r \
      --obs-deterministic true "$smoke_dir/retrain.csv" > /dev/null
  done
  for t in 2 4; do
    cmp "$smoke_dir/nr-$policy-1.json" "$smoke_dir/nr-$policy-$t.json"
    cmp "$smoke_dir/ne-$policy-1.jsonl" "$smoke_dir/ne-$policy-$t.jsonl"
  done
  # The run must actually have swapped a retrained model in.
  grep -q '"kind":"ModelSwap"' "$smoke_dir/ne-$policy-1.jsonl"
done

echo "==> LHR golden smoke (server --policy E-LHR/LHR/N-LHR vs tests/golden, --threads 1 2 4)"
# tests/golden/lhr-server.json is the stable report of commit b90e209 —
# before the LHR serve path was rebuilt — on this very trace (the report
# embeds the file stem, hence the name). Every cache decision feeds hit
# ratio, latency percentiles, WAN and coalesced fetches, so they must repeat
# to the last digit; only peak_mem_gb (the metadata accounting) is masked.
# That commit re-scored every hit, which is `--policy E-LHR` now (the report
# embeds the policy name too, mapped back below); LHR and N-LHR score at
# admission only and are held to the lazy twins recorded with that change.
# tests/lhr_golden.rs holds the library to the same files and, through
# `LhrConfig::rescore_hits`, to the parent's n-lhr-server.json as well.
cargo run --release --offline -p lhr-cli -- generate \
  --kind syn-one --objects 500 --requests 40000 --seed 11 \
  --out "$smoke_dir/lhr-golden.bin"
mask_peak_mem() { sed -E 's/"peak_mem_gb":[^,]*,/"peak_mem_gb":_,/; s/engine\(E-LHR\)/engine(LHR)/' "$1"; }
for pair in E-LHR:lhr-server LHR:lhr-lazy-server N-LHR:n-lhr-lazy-server; do
  policy="${pair%%:*}"
  golden="tests/golden/${pair#*:}.json"
  for t in 1 2 4; do
    cargo run --release --offline -p lhr-cli -- server \
      --policy "$policy" --capacity 1000000 --shards 2 --threads "$t" \
      --report "$smoke_dir/golden-$policy-$t.json" \
      "$smoke_dir/lhr-golden.bin" > /dev/null
  done
  for t in 2 4; do
    cmp "$smoke_dir/golden-$policy-1.json" "$smoke_dir/golden-$policy-$t.json"
  done
  cmp <(mask_peak_mem "$smoke_dir/golden-$policy-1.json") <(mask_peak_mem "$golden")
done

echo "==> every paper report renders (repro --scale tiny --threads 2)"
# The whole evaluation, once: each of the names `repro --only` knows must
# have printed its report, under its title. The paper-shape checks (Figures
# 2, 7 / 13, 10 and 12) are tests over the experiments' typed rows
# (crates/bench/src/experiments.rs), run by `cargo test --workspace` above.
"${CARGO_TARGET_DIR:-target}/release/repro" --scale tiny --threads 2 > "$smoke_dir/repro.out"
for name in table1 fig1 fig2 fig5 fig6 fig7 table2 fig8 fig9 table3 fig10 fig11 \
    fig12 fig13 table4 ablation; do
  title="$(sed -E 's/^fig/Figure /; s/^table/Table /; s/^ablation/Ablation/' <<< "$name")"
  if ! grep -q "^$title " "$smoke_dir/repro.out"; then
    echo "repro printed no \`$title\` report (--only $name)" >&2
    exit 1
  fi
done

echo "==> CLI compare --obs smoke (one recording per policy)"
cargo run --release --offline -p lhr-cli -- compare \
  --capacity 1MB --obs "$smoke_dir/cmp.jsonl" --obs-window 1000r \
  --obs-deterministic true "$smoke_dir/t.csv" > "$smoke_dir/compare.out"
grep -q "^LRU" "$smoke_dir/compare.out"
test -s "$smoke_dir/cmp.lru.jsonl"

echo "==> CLI fleet smoke (--faults node-brownout)"
cargo run --release --offline -p lhr-cli -- fleet \
  --policy LRU --capacity 50MB --nodes 4 --faults node-brownout \
  "$smoke_dir/t.csv" > "$smoke_dir/fleet.out"
grep -q "availability:" "$smoke_dir/fleet.out"
grep -q "failovers:" "$smoke_dir/fleet.out"

echo "==> fleet determinism smoke (--threads 1 2 4 under node-churn, hints expiring)"
# The fleet clause of the determinism contract (ARCHITECTURE.md): stable
# reports and deterministic --obs exports are byte-identical at any
# thread count, even while nodes leave and rejoin cold. t.csv spans 50 s,
# so a 2 s hint TTL expires hints throughout; two shards see 2 500 requests
# each, enough for the 512-request expiry tick to fire; and 1/8 tracing
# puts the refused hints (`peer_hint`, hit:false) into the compared export.
for t in 1 2 4; do
  cargo run --release --offline -p lhr-cli -- fleet \
    --policy LHR --capacity 1MB --nodes 4 --faults node-churn --threads "$t" \
    --shards 2 --hint-ttl 2 \
    --report "$smoke_dir/f$t.json" \
    --obs "$smoke_dir/fo$t.jsonl" --obs-window 1000r --obs-deterministic true \
    --trace-sample 1/8 "$smoke_dir/t.csv" > /dev/null
done
for t in 2 4; do
  cmp "$smoke_dir/f1.json" "$smoke_dir/f$t.json"
  cmp "$smoke_dir/fo1.jsonl" "$smoke_dir/fo$t.jsonl"
done
grep -q '"step":"peer_hint"[^}]*{[^}]*"hit":false' "$smoke_dir/fo1.jsonl"

echo "==> trace-determinism smoke (fleet node-brownout, --trace-sample, threads 1 2 4)"
# The seventh clause of the determinism contract (ARCHITECTURE.md):
# request-path trace sampling, exemplar marks, and SLO events are pure
# functions of the replayed trace, so traced exports stay byte-identical
# across thread counts even under node-level faults.
for t in 1 2 4; do
  cargo run --release --offline -p lhr-cli -- fleet \
    --policy LRU --capacity 1MB --nodes 4 --faults node-brownout --threads "$t" \
    --obs "$smoke_dir/tr$t.jsonl" --obs-window 1000r --obs-deterministic true \
    --trace-sample 1/64 "$smoke_dir/t.csv" > /dev/null
done
for t in 2 4; do
  cmp "$smoke_dir/tr1.jsonl" "$smoke_dir/tr$t.jsonl"
done
grep -q '"record":"trace"' "$smoke_dir/tr1.jsonl"
cargo run --release --offline -p lhr-cli -- obs trace "$smoke_dir/tr1.jsonl" \
  --slowest 3 > "$smoke_dir/trace.out"
grep -q "origin_fetch\|edge_lookup" "$smoke_dir/trace.out"

echo "==> SLO engine smoke (obs slo on a fault-free export)"
# A fault-free replay must meet a tight availability objective: obs slo
# exits 0 and prints a met verdict. (Breaches exit 1 — covered by the
# trace_determinism integration test.)
cargo run --release --offline -p lhr-cli -- server \
  --policy LRU --capacity 1MB --threads 2 \
  --obs "$smoke_dir/slo.jsonl" --obs-window 1000r --obs-deterministic true \
  --slo avail:99.9 "$smoke_dir/t.csv" > /dev/null
cargo run --release --offline -p lhr-cli -- obs slo "$smoke_dir/slo.jsonl" \
  > "$smoke_dir/slo.out"
grep -q "MET" "$smoke_dir/slo.out"

echo "==> bench --obs determinism smoke (repro --only fig2, threads 1 2 4)"
# Grid workers record per-cell spans into private shard recorders; the
# merged deterministic export must not depend on which worker won a cell.
for t in 1 2 4; do
  cargo run --release --offline -q -p lhr-bench --bin repro -- --only fig2 \
    --scale tiny --threads "$t" --obs "$smoke_dir/bench-obs$t.jsonl" > /dev/null
done
for t in 2 4; do
  cmp "$smoke_dir/bench-obs1.jsonl" "$smoke_dir/bench-obs$t.jsonl"
done

echo "verify: OK"
