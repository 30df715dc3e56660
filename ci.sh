#!/usr/bin/env bash
# The full CI gate, runnable locally. Order matters: the cheap static
# checks fail fast before the build and the (slower) test suite.
#
# The build environment is fully offline (dependencies are vendored under
# vendor/), hence --offline everywhere.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings; unwrap/expect are errors at the input boundary) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc (deny rustdoc warnings: no broken or private intra-doc links) =="
# The vendored proptest and rand stand-ins are excluded: proptest's
# `vec` link is ambiguous upstream, and neither is this project's code.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --exclude proptest --exclude rand

# The root directory is both the workspace and a package, so a bare
# `cargo build`/`cargo test` would cover the root package only —
# --workspace everywhere below, or the experiment bins never rebuild.
echo "== cargo build --release (whole workspace) =="
cargo build --release --offline --workspace

echo "== cargo test (whole workspace) =="
cargo test --offline -q --workspace

echo "== cargo test (--test-threads=2, shakes out ordering assumptions) =="
cargo test --offline -q --workspace -- --test-threads=2

echo "== kill/resume contract (checkpoint_resume, explicitly) =="
cargo test --offline -q --test checkpoint_resume

echo "== chaos suite (seed-pinned fault plans, differential vs clean runs) =="
cargo test --offline -q --test chaos_suite

echo "== execctx capability matrix (24 lattice points, explicitly) =="
cargo test --offline -q --test execctx_matrix

echo "== composed-capabilities smoke (fig9: jobs 4 + trace + checkpoint + transient faults) =="
# Every capability at once must compose: the run exits 0 (transient
# faults retry to invisibility), its trace lints clean, and a serial run
# of the same plan is structurally identical — composition is data on
# one code path, not a separate code path per combination.
SMOKE_CKPT_J4="$(mktemp -d /tmp/slopt_smoke_ckpt4.XXXXXX)"
SMOKE_CKPT_J1="$(mktemp -d /tmp/slopt_smoke_ckpt1.XXXXXX)"
SMOKE_TRACE_J4="$(mktemp /tmp/slopt_smoke_j4.XXXXXX.jsonl)"
SMOKE_TRACE_J1="$(mktemp /tmp/slopt_smoke_j1.XXXXXX.jsonl)"
cargo run --release --offline -p slopt-bench --bin fig9 -- --jobs 4 \
    --trace-out "$SMOKE_TRACE_J4" --checkpoint-dir "$SMOKE_CKPT_J4" \
    --fault-plan seed=7,transient=0.5,panic=0.2 --max-retries 16 > /dev/null
./target/release/slopt-tool stats "$SMOKE_TRACE_J4" > /dev/null
cargo run --release --offline -p slopt-bench --bin fig9 -- --jobs 1 \
    --trace-out "$SMOKE_TRACE_J1" --checkpoint-dir "$SMOKE_CKPT_J1" \
    --fault-plan seed=7,transient=0.5,panic=0.2 --max-retries 16 > /dev/null
SMOKE_DIFF="$(./target/release/slopt-tool diff "$SMOKE_TRACE_J1" "$SMOKE_TRACE_J4")"
echo "$SMOKE_DIFF" | grep -q "result: 0 structural delta(s), 0 timing breach(es)" \
    || { echo "composed smoke: serial vs fanned trace diverged:"; echo "$SMOKE_DIFF"; exit 1; }
rm -rf "$SMOKE_CKPT_J4" "$SMOKE_CKPT_J1" "$SMOKE_TRACE_J4" "$SMOKE_TRACE_J1"

echo "== help-surface conformance (every bin, one flag reference) =="
cargo test --offline -q -p slopt-bench --test help_matrix --test args_prop --test ablate_cli \
    --test fig_search_cli

echo "== degraded-run contract (fig9, the ablate rows and layout search under a permanent fault plan exit 4) =="
set +e
cargo run --release --offline -p slopt-bench --bin fig9 -- --jobs 4 \
    --fault-plan seed=3,permanent=1 > /dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 4 ]; then
    echo "fig9 with permanent faults: expected exit 4 (degraded), got $code"
    exit 1
fi
# These three rows measured outside the grid before they became ablate
# rows, so a fault plan never reached them.
for row in floor inline sweep_remote_latency; do
    set +e
    ./target/release/ablate "$row" --jobs 2 --fault-plan seed=3,permanent=1 > /dev/null 2>&1
    code=$?
    set -e
    if [ "$code" -ne 4 ]; then
        echo "ablate $row with permanent faults: expected exit 4 (degraded), got $code"
        exit 1
    fi
done
# Layout search measured outside the grid before its validation became
# grid items, so it exited 0 with the clean output.
for cmd in "./target/release/slopt-tool search --stress --seed 42" \
    "./target/release/fig_search --steps 200"; do
    set +e
    $cmd --fault-plan seed=3,permanent=1 > /dev/null 2>&1
    code=$?
    set -e
    if [ "$code" -ne 4 ]; then
        echo "$cmd with permanent faults: expected exit 4 (degraded), got $code"
        exit 1
    fi
done
set +e
cargo run --release --offline -p slopt-bench --bin fig9 -- \
    --fault-plan bogus=1 > /dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 2 ]; then
    echo "fig9 with a malformed fault plan: expected exit 2 (usage), got $code"
    exit 1
fi

echo "== cargo bench --no-run (compile-check benches) =="
cargo bench --no-run --offline

echo "== trace lint (fig9 --trace-out round-trip) =="
# The live --stats table and the replayed trace are one summary: their
# counter/gauge rows must be byte-identical.
TRACE_TMP="$(mktemp /tmp/slopt_trace.XXXXXX.jsonl)"
LIVE_STATS_TMP="$(mktemp /tmp/slopt_live_stats.XXXXXX.txt)"
REPLAY_STATS_TMP="$(mktemp /tmp/slopt_replay_stats.XXXXXX.txt)"
cargo run --release --offline -p slopt-bench --bin fig9 -- --jobs 1 --stats \
    --trace-out "$TRACE_TMP" > "$LIVE_STATS_TMP"
./target/release/slopt-tool stats "$TRACE_TMP" > "$REPLAY_STATS_TMP"
grep -q '^  counter/gauge ' "$LIVE_STATS_TMP" \
    || { echo "fig9 --stats: no counter/gauge table"; exit 1; }
cmp <(sed -n '/^=== run stats ===$/,$p' "$LIVE_STATS_TMP" | sed -n '/^  counter\/gauge /,$p') \
    <(sed -n '/^  counter\/gauge /,$p' "$REPLAY_STATS_TMP") \
    || { echo "fig9: live --stats and replayed counter/gauge rows differ"; exit 1; }
rm -f "$LIVE_STATS_TMP" "$REPLAY_STATS_TMP"
# A trace that could not be written is an internal failure: exit 1.
if [ -e /dev/full ]; then
    set +e
    ./target/release/fig9 --jobs 1 --trace-out /dev/full > /dev/null 2>&1
    code=$?
    set -e
    if [ "$code" -ne 1 ]; then
        echo "fig9 --trace-out /dev/full: expected exit 1 (trace write failed), got $code"
        exit 1
    fi
fi

echo "== trace diff determinism gate (two same-seed serial fig9 runs) =="
# Everything deterministic in the trace — span counts, counters, workload
# histograms — must be bit-identical between two serial runs on the same
# seed; only timestamps (and the timing-derived gauges/span histograms
# the diff already excludes) may move. Exit 0 plus an explicit zero in
# the result line is the gate.
TRACE_TMP2="$(mktemp /tmp/slopt_trace2.XXXXXX.jsonl)"
cargo run --release --offline -p slopt-bench --bin fig9 -- --jobs 1 --trace-out "$TRACE_TMP2" > /dev/null
DIFF_OUT="$(./target/release/slopt-tool diff "$TRACE_TMP" "$TRACE_TMP2")"
echo "$DIFF_OUT" | grep -q "result: 0 structural delta(s), 0 timing breach(es)" \
    || { echo "slopt-tool diff found deltas between same-seed runs:"; echo "$DIFF_OUT"; exit 1; }

echo "== slopt-tool stats --prom (Prometheus exposition self-check) =="
# `stats --prom` runs the exposition text through the built-in format
# validator before printing; the greps double-check the histogram family
# made it out with its +Inf terminator.
PROM_TMP="$(mktemp /tmp/slopt_prom.XXXXXX.txt)"
cargo run --release --offline -p slopt-cli -- stats "$TRACE_TMP" --prom > "$PROM_TMP"
grep -q '^# TYPE slopt_' "$PROM_TMP"
grep -q '_bucket{le="+Inf"}' "$PROM_TMP"
grep -q '_count ' "$PROM_TMP"
rm -f "$TRACE_TMP" "$TRACE_TMP2" "$PROM_TMP"

echo "== trace lint (resumed fig9 run round-trips through slopt-tool stats) =="
CKPT_TMP="$(mktemp -d /tmp/slopt_ckpt.XXXXXX)"
RESUME_TRACE_TMP="$(mktemp /tmp/slopt_resume_trace.XXXXXX.jsonl)"
cargo run --release --offline -p slopt-bench --bin fig9 -- --jobs 1 \
    --checkpoint-dir "$CKPT_TMP" > /dev/null
cargo run --release --offline -p slopt-bench --bin fig9 -- --jobs 1 \
    --checkpoint-dir "$CKPT_TMP" --resume --trace-out "$RESUME_TRACE_TMP" > /dev/null
./target/release/slopt-tool stats "$RESUME_TRACE_TMP" > /dev/null
rm -rf "$CKPT_TMP" "$RESUME_TRACE_TMP"

echo "== run store reuse across processes (fig10 --resume after fig8) =="
# One run log serves every grid: fig10 re-measures fig8's baseline and
# tool cells (and two constrained cells coincide with fig8's), so 56 of
# its 77 grid items resume from fig8's log, and the figure is the bytes
# of a clean fig10 run.
REUSE_DIR="$(mktemp -d /tmp/slopt_reuse.XXXXXX)"
./target/release/fig8 --checkpoint-dir "$REUSE_DIR/ckpt" > /dev/null 2>&1
./target/release/fig10 --checkpoint-dir "$REUSE_DIR/ckpt" --resume --stats \
    > "$REUSE_DIR/resumed.txt" 2> /dev/null
./target/release/fig10 > "$REUSE_DIR/clean.txt" 2> /dev/null
grep -Eq '^ *ckpt\.items_resumed +56$' "$REUSE_DIR/resumed.txt" \
    || { echo "fig10 after fig8: expected 56 resumed grid items"; exit 1; }
sed '/^=== run stats ===$/,$d' "$REUSE_DIR/resumed.txt" | cmp - "$REUSE_DIR/clean.txt" \
    || { echo "fig10 resumed from fig8's runs differs from a clean fig10"; exit 1; }
rm -rf "$REUSE_DIR"

echo "== cargo test --doc (public-API doctests) =="
cargo test --offline -q --workspace --doc

echo "== search smoke (seeded annealing beats greedy, jobs-invariant) =="
# A fixed seed makes the whole portfolio deterministic, so the outputs of
# a serial and a fanned-out run must be byte-identical, and the stress
# workload's greedy trap must be escaped on both of its structs.
SEARCH_J1="$(mktemp /tmp/slopt_search_j1.XXXXXX.txt)"
SEARCH_J4="$(mktemp /tmp/slopt_search_j4.XXXXXX.txt)"
cargo run --release --offline -p slopt-cli -- search --stress --seed 42 \
    --jobs 1 > "$SEARCH_J1"
cargo run --release --offline -p slopt-cli -- search --stress --seed 42 \
    --jobs 4 > "$SEARCH_J4"
cmp "$SEARCH_J1" "$SEARCH_J4"
grep -q "strictly better objective than greedy on 2/2 structs" "$SEARCH_J1"
# The golden pins the whole table, not just the verdict line.
cmp tests/data/search_stress_seed42.golden.txt "$SEARCH_J1" \
    || { echo "search --stress --seed 42 drifted from its golden"; exit 1; }
# Validation runs are grid items: transient faults and panics retry to
# invisibility.
cargo run --release --offline -p slopt-cli -- search --stress --seed 42 \
    --fault-plan seed=7,transient=0.5,panic=0.2 --max-retries 16 > "$SEARCH_J4"
cmp tests/data/search_stress_seed42.golden.txt "$SEARCH_J4" \
    || { echo "search --stress --seed 42 under transient faults drifted from its golden"; exit 1; }
# The run memo answers repeated layouts (on the kernel the tool layout
# is often the search winner); its counters and the table may not
# depend on --jobs.
SEARCH_STATS="$(mktemp /tmp/slopt_search_stats.XXXXXX.txt)"
./target/release/slopt-tool search --seed 42 --jobs 1 --stats > "$SEARCH_STATS" 2> /dev/null
./target/release/slopt-tool search --seed 42 --jobs 4 > "$SEARCH_J4" 2> /dev/null
sed '/^=== run stats ===$/,$d' "$SEARCH_STATS" > "$SEARCH_J1"
cmp "$SEARCH_J1" "$SEARCH_J4" \
    || { echo "search --seed 42: --jobs 1 and --jobs 4 tables differ"; exit 1; }
grep -Eq '^ *sim\.memo_runs +42$' "$SEARCH_STATS" \
    || { echo "search --seed 42: expected 42 simulated runs"; exit 1; }
grep -Eq '^ *sim\.memo_hits +24$' "$SEARCH_STATS" \
    || { echo "search --seed 42: expected 24 memo hits"; exit 1; }
rm -f "$SEARCH_J1" "$SEARCH_J4" "$SEARCH_STATS"

echo "== figures golden (slopt-tool figures --jobs 2, byte for byte) =="
# The benchmark digests this output but only warns on a change; this
# step fails instead. A deliberate change regenerates the golden.
FIGURES_TMP="$(mktemp /tmp/slopt_figures.XXXXXX.txt)"
FIGURES_J2_STATS_TMP="$(mktemp /tmp/slopt_figures_j2_stats.XXXXXX.txt)"
./target/release/slopt-tool figures --jobs 2 --stats > "$FIGURES_J2_STATS_TMP" 2> /dev/null
sed '/^=== run stats ===$/,$d' "$FIGURES_J2_STATS_TMP" > "$FIGURES_TMP"
cmp tests/data/figures_jobs2.golden.txt "$FIGURES_TMP" \
    || { echo "slopt-tool figures drifted from its golden"; exit 1; }
# A worker's utilization is its share of one grid's wall time: a ratio.
grep -Eq '^ *runner\.worker[0-9]+\.utilization ' "$FIGURES_J2_STATS_TMP" \
    || { echo "slopt-tool figures --stats: no worker utilization gauges"; exit 1; }
awk '$1 ~ /^runner\.worker[0-9]+\.utilization$/ && $2 > 1 { print; bad = 1 } END { exit bad }' \
    "$FIGURES_J2_STATS_TMP" \
    || { echo "slopt-tool figures --stats: a worker utilization above 1"; exit 1; }
rm -f "$FIGURES_J2_STATS_TMP"
# The serial run must print the same bytes: the run memo (each distinct
# simulation runs once per process) may not depend on --jobs. Its
# counters pin the grid: 238 items, 175 distinct runs, 63 reused.
FIGURES_STATS_TMP="$(mktemp /tmp/slopt_figures_stats.XXXXXX.txt)"
./target/release/slopt-tool figures --jobs 1 --stats > "$FIGURES_STATS_TMP" 2> /dev/null
sed '/^=== run stats ===$/,$d' "$FIGURES_STATS_TMP" > "$FIGURES_TMP"
cmp tests/data/figures_jobs2.golden.txt "$FIGURES_TMP" \
    || { echo "slopt-tool figures --jobs 1 differs from the --jobs 2 golden"; exit 1; }
grep -Eq '^ *sim\.memo_runs +175$' "$FIGURES_STATS_TMP" \
    || { echo "slopt-tool figures: expected 175 simulated runs"; exit 1; }
grep -Eq '^ *sim\.memo_hits +63$' "$FIGURES_STATS_TMP" \
    || { echo "slopt-tool figures: expected 63 memo hits"; exit 1; }
rm -f "$FIGURES_TMP" "$FIGURES_STATS_TMP"

echo "== ablate golden (every ablation row, --jobs 2 and --jobs 1, byte for byte) =="
ABLATE_TMP="$(mktemp /tmp/slopt_ablate.XXXXXX.txt)"
./target/release/ablate --jobs 2 > "$ABLATE_TMP" 2> /dev/null
cmp tests/data/ablate_jobs2.golden.txt "$ABLATE_TMP" \
    || { echo "ablate drifted from its golden"; exit 1; }
# The rows share one run memo; its counters, like the tables, may not
# depend on --jobs: 371 grid items, 189 distinct runs, 182 reused.
ABLATE_STATS_TMP="$(mktemp /tmp/slopt_ablate_stats.XXXXXX.txt)"
./target/release/ablate --jobs 1 --stats > "$ABLATE_STATS_TMP" 2> /dev/null
sed '/^=== run stats ===$/,$d' "$ABLATE_STATS_TMP" > "$ABLATE_TMP"
cmp tests/data/ablate_jobs2.golden.txt "$ABLATE_TMP" \
    || { echo "ablate --jobs 1 differs from the --jobs 2 golden"; exit 1; }
grep -Eq '^ *sim\.memo_runs +189$' "$ABLATE_STATS_TMP" \
    || { echo "ablate: expected 189 simulated runs"; exit 1; }
grep -Eq '^ *sim\.memo_hits +182$' "$ABLATE_STATS_TMP" \
    || { echo "ablate: expected 182 memo hits"; exit 1; }
rm -f "$ABLATE_TMP" "$ABLATE_STATS_TMP"

echo "== perf_report --quick --jobs 4 (refresh BENCH_sim.json) + perf_guard =="
BASELINE_TMP="$(mktemp /tmp/slopt_bench_baseline.XXXXXX.json)"
cp BENCH_sim.json "$BASELINE_TMP"
cargo run --release --offline -p slopt-bench --bin perf_report -- --quick --jobs 4
# Growth floors: the CC kernel must beat one run of the naive oracle
# 50x (on a 2-core host the quick stream measured 78-119x; a kernel that
# falls back to the cpu-pair walk of interval_minsum_sparse on every
# interval read 24-30x), the delta move scorer must beat a full canonical
# recompute 20x (it is serial, so never host-core-skipped), and the CC fold
# fanned over --jobs must show 3x at jobs=4. The parallel floor is host-core-aware:
# perf_guard enforces it only when the measuring host reports >= 4 cores
# (wall-clock speedup is physically capped below that) and prints a
# SKIPPED note otherwise.
cargo run --release --offline -p slopt-bench --bin perf_guard -- BENCH_sim.json \
    --baseline "$BASELINE_TMP" \
    --require-speedup cc:50 \
    --require-speedup search_delta:20 \
    --require-parallel cc:3.0
rm -f "$BASELINE_TMP"

echo "== slopt-serve soak smoke (daemon + 3 faulted collectors, drain, kill-9/resume) =="
# The daemon's correctness contract end to end, with real processes:
# advice served after concurrent faulted ingest is cmp-equal to an
# offline run over the same samples; SIGTERM drains to exit 0; kill -9
# plus restart --resume serves bit-identical advice again. The release
# build above produced the binaries — call them directly so the
# backgrounded daemon never contends on the cargo lock.
SERVE_BIN=./target/release/slopt-serve
TOOL_BIN=./target/release/slopt-tool
SOAK_DIR="$(mktemp -d /tmp/slopt_soak.XXXXXX)"
SHARDS="$SOAK_DIR/shards"
STATE="$SOAK_DIR/state"
"$SERVE_BIN" --emit-samples "$SHARDS" --clients 3 --batches 4 --window 64 \
    2> "$SOAK_DIR/emit.log"
"$SERVE_BIN" --offline "$SHARDS" --window 64 --jobs 4 \
    --advice-out "$SOAK_DIR/offline.txt"
"$SERVE_BIN" --checkpoint-dir "$STATE" --addr 127.0.0.1:0 --window 64 --jobs 2 \
    --fault-plan seed=11,transient=0.2,write-error=0.2 --max-retries 24 \
    > "$SOAK_DIR/serve_a.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 200); do [ -s "$STATE/addr" ] && break; sleep 0.1; done
[ -s "$STATE/addr" ] || { echo "soak: daemon never published its address"; exit 1; }
INGEST_PIDS=""
for c in 0 1 2; do
    "$TOOL_BIN" serve ingest --state-dir "$STATE" --dir "$SHARDS/client0$c" \
        --client-id "$c" --fault-plan seed=7,transient=0.3 --max-retries 24 \
        > "$SOAK_DIR/ingest_$c.log" 2>&1 &
    INGEST_PIDS="$INGEST_PIDS $!"
done
for pid in $INGEST_PIDS; do
    wait "$pid" || { echo "soak: a collector failed"; cat "$SOAK_DIR"/ingest_*.log; exit 1; }
done
"$TOOL_BIN" serve advise --state-dir "$STATE" > "$SOAK_DIR/live.txt"
cmp "$SOAK_DIR/offline.txt" "$SOAK_DIR/live.txt" \
    || { echo "soak: daemon advice diverged from the offline reference"; exit 1; }
"$TOOL_BIN" serve health --state-dir "$STATE" | grep -q '^ok .*torn_dropped=0' \
    || { echo "soak: unhealthy daemon"; exit 1; }
"$TOOL_BIN" serve metrics --state-dir "$STATE" \
    | grep -q '^# TYPE slopt_serve_ingest_batches counter' \
    || { echo "soak: ingest not visible in /metrics"; exit 1; }
kill -TERM "$SERVE_PID"
set +e
wait "$SERVE_PID"
code=$?
set -e
if [ "$code" -ne 0 ]; then
    echo "soak: SIGTERM drain: expected exit 0, got $code"
    cat "$SOAK_DIR/serve_a.log"
    exit 1
fi
# kill -9 a resumed daemon mid-window, restart with --resume: the journal
# refold must reproduce the window, and the advice must not move a bit.
rm -f "$STATE/addr"
"$SERVE_BIN" --checkpoint-dir "$STATE" --resume --addr 127.0.0.1:0 --window 64 \
    --jobs 4 > "$SOAK_DIR/serve_b.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 200); do [ -s "$STATE/addr" ] && break; sleep 0.1; done
[ -s "$STATE/addr" ] || { echo "soak: resumed daemon never published its address"; exit 1; }
kill -9 "$SERVE_PID"
set +e
wait "$SERVE_PID" 2> /dev/null
set -e
rm -f "$STATE/addr"
"$SERVE_BIN" --checkpoint-dir "$STATE" --resume --addr 127.0.0.1:0 --window 64 \
    --jobs 1 > "$SOAK_DIR/serve_c.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 200); do [ -s "$STATE/addr" ] && break; sleep 0.1; done
[ -s "$STATE/addr" ] || { echo "soak: post-kill-9 daemon never published its address"; exit 1; }
"$TOOL_BIN" serve advise --state-dir "$STATE" > "$SOAK_DIR/resumed.txt"
cmp "$SOAK_DIR/offline.txt" "$SOAK_DIR/resumed.txt" \
    || { echo "soak: post-kill-9 resume changed the advice"; exit 1; }
"$TOOL_BIN" serve health --state-dir "$STATE" | grep -q 'resumed_batches=12' \
    || { echo "soak: resume did not refold the journal"; exit 1; }
"$TOOL_BIN" serve drain --state-dir "$STATE" > /dev/null
set +e
wait "$SERVE_PID"
code=$?
set -e
if [ "$code" -ne 0 ]; then
    echo "soak: client-initiated drain: expected exit 0, got $code"
    cat "$SOAK_DIR/serve_c.log"
    exit 1
fi
rm -rf "$SOAK_DIR"

echo "== benchmark crate (its own workspace: fmt, clippy, tests, smoke run) =="
# benchmark/ builds against the library crates' public API but is not a
# workspace member, so only this step catches a signature change that
# breaks it.
bash benchmark/check.sh

echo "ci.sh: all green"
