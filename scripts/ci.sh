#!/usr/bin/env bash
# Full local CI gate: build, test, format, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> metric-name lint (README table vs registration calls)"
scripts/lint_metrics.sh

echo "==> kernel equivalence smoke (blocked/parallel kernels vs naive refs)"
# The release-mode codegen is what production runs, so the bit-exactness
# contract (kernel.rs) is re-proven here under --release: blocked and
# pool-parallel matmul/t_matmul/matmul_t must match the naive reference
# loops bit-for-bit at threads 1/4/8, NaN/Inf propagation included.
cargo test -q --release -p tensor --test kernel_equivalence

echo "==> row-sparse gradient exactness (release codegen)"
# The row-sparse SGD step and gradient reset must write the bits of the
# dense passes they replace (optim.rs unit tests), and the gradient
# rankers' score bits after fit + fine-tunes are pinned
# (fine_tune_bits). Both are re-proven under --release here.
cargo test -q --release -p tensor
cargo test -q --release -p recsys --test fine_tune_bits

echo "==> policy replay exactness (release codegen)"
# The PoisonRec policy's parameters and PPO signals after a few trainer
# steps, and one seeded episode's replayed log-probs and gradients, are
# pinned at the benchmark's policy shape (policy_bits); the fused RowDot
# pair logits must reproduce them under --release too.
cargo test -q --release -p poisonrec --test policy_bits

echo "==> eval candidate table exactness (release codegen)"
# Every eval user's candidate set is drawn once into a table; the drawn
# ids and the RecNum observations read from it are pinned
# (candidate_bits) and re-proven under --release here.
cargo test -q --release -p recsys --test candidate_bits

echo "==> telemetry smoke (tiny fig4 run + JSONL validation)"
# 3 steps x 4 episodes on one tiny ItemPop cell per design; the
# validator checks every line parses, steps are gap-free per cell, and
# each cell's cumulative observations equal episodes x (step + 1).
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
cargo run --release -p bench --bin exp_fig4 -- \
    --scale 0.02 --steps 3 --episodes 4 --attackers 4 --trajectory 5 \
    --dim 8 --eval-users 16 --rankers itempop \
    --out "$smoke_dir" --telemetry "$smoke_dir/run.jsonl" >/dev/null
test -s "$smoke_dir/run.jsonl" || { echo "telemetry log empty"; exit 1; }
cargo run --release -p telemetry --bin validate_jsonl -- \
    "$smoke_dir/run.jsonl" --expect-steps 3 --expect-cells 4

echo "==> crash/resume smoke (scripted kill + bit-identical resume)"
# First run checkpoints every 2 steps and a scripted fault kills the
# process right after the step-4 checkpoint of the first cell (exit
# code 42). The second run resumes from the checkpoint directory and
# finishes everything. Stitching the two telemetry logs (dropping the
# second manifest) must yield a gap-free 6-step trace for all 4 cells
# — the proof that resume continued exactly where the crash stopped.
crash_dir="$smoke_dir/crash"
mkdir -p "$crash_dir"
set +e
cargo run --release -p bench --bin exp_fig4 -- \
    --scale 0.02 --steps 6 --episodes 4 --attackers 4 --trajectory 5 \
    --dim 8 --eval-users 16 --rankers itempop --threads 1 \
    --checkpoint-every 2 --checkpoint-dir "$crash_dir/ckpt" \
    --fault-kill-step 4 \
    --out "$crash_dir" --telemetry "$crash_dir/run1.jsonl" >/dev/null 2>&1
status=$?
set -e
if [ "$status" -ne 42 ]; then
    echo "expected fault exit code 42, got $status"
    exit 1
fi
ls "$crash_dir"/ckpt/*.ckpt >/dev/null || { echo "no checkpoint written before kill"; exit 1; }
cargo run --release -p bench --bin exp_fig4 -- \
    --scale 0.02 --steps 6 --episodes 4 --attackers 4 --trajectory 5 \
    --dim 8 --eval-users 16 --rankers itempop --threads 1 \
    --checkpoint-every 2 --checkpoint-dir "$crash_dir/ckpt" \
    --resume "$crash_dir/ckpt" \
    --out "$crash_dir" --telemetry "$crash_dir/run2.jsonl" >/dev/null
cat "$crash_dir/run1.jsonl" > "$crash_dir/stitched.jsonl"
tail -n +2 "$crash_dir/run2.jsonl" >> "$crash_dir/stitched.jsonl"
cargo run --release -p telemetry --bin validate_jsonl -- \
    "$crash_dir/stitched.jsonl" --expect-steps 6 --expect-cells 4

echo "==> trace smoke (tiny traced fig4 run + Chrome-trace validation)"
# The same tiny cell, now with the hierarchical tracer armed. The
# validator re-parses the Chrome JSON and enforces the trace schema
# (balanced begin/end per span, monotone timestamps per track, LIFO
# nesting); trace_report then aggregates it and gates the op table.
trace_dir="$smoke_dir/trace"
mkdir -p "$trace_dir"
cargo run --release -p bench --bin exp_fig4 -- \
    --scale 0.02 --steps 3 --episodes 4 --attackers 4 --trajectory 5 \
    --dim 8 --eval-users 16 --rankers itempop \
    --out "$trace_dir" --trace "$trace_dir/trace.json" >/dev/null
cargo run --release -p telemetry --bin validate_jsonl -- --trace "$trace_dir/trace.json"
cargo run --release -p telemetry --bin trace_report -- "$trace_dir/trace.json" >/dev/null

echo "==> serve smoke (over-the-wire attack cell + load grid + access log)"
# exp_serve replays a tiny fig-4 cell through RemoteSystem over a real
# socket (asserting bit-identical rewards), sweeps a connections load
# grid on persistent keep-alive connections (asserting zero non-200s
# and no reconnect-per-request), churns retrains under read load, and
# shuts down gracefully — its exit code is non-zero if any accepted
# request was dropped. The access log it leaves behind must validate,
# including the per-event lag_micros field.
serve_dir="$smoke_dir/serve"
mkdir -p "$serve_dir"
SERVE_CONNS_GRID=2 SERVE_REQUESTS=60 SERVE_IDLE_CONNS=0 \
SERVE_ACCESS_LOG="$serve_dir/access.jsonl" \
cargo run --release -p bench --bin exp_serve -- \
    --scale 0.02 --steps 1 --episodes 2 --attackers 4 --trajectory 5 \
    --dim 8 --eval-users 8 --rankers itempop --threads 2 \
    --out "$serve_dir" >/dev/null
cargo run --release -p telemetry --bin validate_jsonl -- \
    --access-log "$serve_dir/access.jsonl"

echo "==> high-connection smoke (1k idle keep-alive conns on the event loop)"
# The event loop holds 1k idle keep-alive connections on its fixed
# thread set while the grid and retrain churn run; the access log must
# still validate (per-conn clocks monotone).
many_dir="$smoke_dir/many_conns"
mkdir -p "$many_dir"
SERVE_CONNS_GRID=2 SERVE_REQUESTS=40 SERVE_IDLE_CONNS=1000 \
SERVE_ACCESS_LOG="$many_dir/access.jsonl" \
cargo run --release -p bench --bin exp_serve -- \
    --scale 0.02 --steps 1 --episodes 2 --attackers 4 --trajectory 5 \
    --dim 8 --eval-users 8 --rankers itempop --threads 2 \
    --out "$many_dir" >/dev/null
cargo run --release -p telemetry --bin validate_jsonl -- \
    --access-log "$many_dir/access.jsonl"

echo "==> live-metrics smoke (/metrics scrapes against the real binary)"
# The serve binary up on a real socket, driven over its stdin protocol:
# obs_top scrapes /metrics in Prometheus text twice (validate_prom
# checks exposition well-formedness on each and cumulative-series
# monotonicity across the pair), once with ?window=5 (the narrowed
# window must label every windowed series), and once as the JSON
# table render. A "quit" line then shuts the server down gracefully
# (exit 0 == nothing dropped) and the access log's drop accounting
# must balance.
live_dir="$smoke_dir/live_metrics"
mkdir -p "$live_dir"
mkfifo "$live_dir/stdin.fifo"
./target/release/serve \
    --dataset steam --scale 0.02 --ranker ItemPop --port 0 \
    --threads 2 --eval-users 8 \
    --access-log "$live_dir/access.jsonl" \
    < "$live_dir/stdin.fifo" > "$live_dir/serve.out" &
serve_pid=$!
exec 9> "$live_dir/stdin.fifo" # hold the writer open: EOF means shutdown
for _ in $(seq 100); do
    grep -q '"type":"serving"' "$live_dir/serve.out" 2>/dev/null && break
    sleep 0.1
done
addr="$(sed -n 's/.*"addr":"\([^"]*\)".*/\1/p' "$live_dir/serve.out" | head -1)"
test -n "$addr" || { echo "serve bin never announced its address"; exit 1; }
./target/release/obs_top --addr "$addr" --scrape prom --iters 1 --no-clear \
    > "$live_dir/scrape1.prom"
./target/release/obs_top --addr "$addr" --scrape prom --iters 1 --no-clear \
    > "$live_dir/scrape2.prom"
cargo run --release -p telemetry --bin validate_prom -- \
    "$live_dir/scrape1.prom" "$live_dir/scrape2.prom"
./target/release/obs_top --addr "$addr" --scrape prom --window 5 --iters 1 \
    --no-clear > "$live_dir/scrape_w5.prom"
grep -q 'window="5"' "$live_dir/scrape_w5.prom" \
    || { echo "?window=5 scrape missing narrowed window label"; exit 1; }
./target/release/obs_top --addr "$addr" --iters 1 --no-clear \
    > "$live_dir/table.txt"
grep -q 'windowed histograms' "$live_dir/table.txt" \
    || { echo "obs_top table render missing windowed histograms"; exit 1; }
echo quit >&9
exec 9>&-
wait "$serve_pid" || { echo "serve bin exited non-zero (dropped requests?)"; exit 1; }
cargo run --release -p telemetry --bin validate_jsonl -- \
    --access-log "$live_dir/access.jsonl"

echo "==> attack zoo smoke (tiny grid, one cell per family, local + wire)"
# exp_zoo drives every registered attack family through the shared
# run_attack lifecycle on one tiny cell each — in-process AND through
# RemoteSystem over a real socket, asserting the two are bit-identical
# per cell. The zoo telemetry log must validate under the zoo schema
# (gap-free steps per cell, observations within the declared budget,
# injection peaks within N x T, one summary per cell).
zoo_dir="$smoke_dir/zoo"
mkdir -p "$zoo_dir"
ZOO_BUDGETS=4x6 ZOO_TRANSPORT=both \
ZOO_APPGRAD_ITERS=2 ZOO_INFLUENCE_ROUNDS=2 \
cargo run --release -p bench --bin exp_zoo -- \
    --scale 0.02 --steps 2 --episodes 4 --attackers 4 --trajectory 6 \
    --dim 8 --eval-users 16 --rankers itempop --datasets steam \
    --out "$zoo_dir" --telemetry "$zoo_dir/zoo.jsonl" >/dev/null
# 8 families x 2 transports.
cargo run --release -p telemetry --bin validate_jsonl -- \
    "$zoo_dir/zoo.jsonl" --zoo --expect-cells 16

echo "==> defense smoke (attack x defense matrix, both transports + CSV lift gate)"
# exp_defense runs the Popular family against all five defense kinds
# (undefended `none` first as the lift baseline), each cell in-process
# AND over the wire, asserting bit-identical histories/poison/RecNum
# and verdict ledgers between the transports. The committed smoke
# config (Steam 0.1 x CoVisitation, N=16 T=20) is the acceptance
# setting from DESIGN.md §5j: the undefended lift is large enough
# (RecNum 29) that every layered kind must show positive lift
# degradation at <= 5% organic FPR — the awk gate below enforces
# exactly that from the CSV. The telemetry log must validate under the
# defense schema (one defense_cell per cell x transport, balanced
# verdict ledgers, finite rates, none-cells reject nothing).
def_dir="$smoke_dir/defense"
mkdir -p "$def_dir"
DEF_ATTACKS=popular DEF_BUDGETS=16x20 DEF_TRANSPORT=both \
cargo run --release -p bench --bin exp_defense -- \
    --scale 0.1 --attackers 16 --trajectory 20 --eval-users 96 \
    --rankers covisitation --datasets steam --threads 2 \
    --out "$def_dir" --telemetry "$def_dir/defense.jsonl" >/dev/null
# 5 defense kinds x 2 transport legs.
cargo run --release -p telemetry --bin validate_jsonl -- \
    "$def_dir/defense.jsonl" --defense --expect-cells 10
awk -F, '
    NR == 1 { next }
    $6 != "local" { next }
    $3 == "none" {
        if ($15 + 0 == 0) { print "defense smoke: no undefended lift to degrade"; bad = 1 }
        next
    }
    {
        kinds++
        if ($17 + 0 <= 0) { print "defense smoke: " $3 " shows no lift degradation"; bad = 1 }
        if ($14 + 0 > 0.05) { print "defense smoke: " $3 " organic FPR " $14 " > 0.05"; bad = 1 }
    }
    END {
        if (kinds != 4) { print "defense smoke: expected 4 layered kinds, saw " kinds; bad = 1 }
        exit bad
    }
' "$def_dir/defense.csv"

echo "==> attack zoo conformance suite (release)"
# Every registered family through the pinned checks: thread
# invariance, wire transparency, interrupt+resume
# bit-identity, and the budget/capability property tests — re-proven
# under release codegen, which is what the experiment grids run.
# defense_conformance re-proves the same gate with a stateful
# admission judge in the path (every family x defense kind), plus
# kill+resume with the defense state sealed into the checkpoint.
# The recsys `defense` unit tests re-prove, at release speed, that the
# bounded k-NN selection equals sort + truncate bit for bit and that
# the calibrated thresholds and judged state match their pinned bits.
cargo test -q --release --test attack_conformance --test attack_budget \
    --test defense_conformance
cargo test -q --release -p recsys defense

echo "==> perf gate (tiny bench snapshot + perf_diff both ways)"
# A fresh snapshot must pass against itself, and the committed +20%
# regression fixture must fail the gate (exit non-zero).
BENCH_SCALE=0.02 BENCH_STEPS=1 BENCH_EPISODES=4 BENCH_EVAL_USERS=32 BENCH_THREADS=2 \
BENCH_SERVE_STEPS=1 BENCH_SERVE_EPISODES=2 BENCH_SERVE_EVAL_USERS=8 \
SERVE_CONNS_GRID=2 SERVE_REQUESTS=60 SERVE_IDLE_CONNS=200 \
    scripts/bench_snapshot.sh "$smoke_dir/BENCH_tiny.json" >/dev/null
cargo run --release -p telemetry --bin perf_diff -- \
    "$smoke_dir/BENCH_tiny.json" "$smoke_dir/BENCH_tiny.json" >/dev/null
if cargo run --release -p telemetry --bin perf_diff -- \
    tests/golden/bench_baseline.json tests/golden/bench_regressed.json >/dev/null 2>&1; then
    echo "perf_diff accepted a +20% regression fixture"; exit 1
fi

echo "==> committed-snapshot must-improve gate (PR7 kernels vs PR6 baseline)"
# The committed BENCH_PR7.json was recorded on the same workload as
# BENCH_PR6.json; the kernel rewrite must show up in it as a >= 1.54x
# faster PPO update median (1-core container is the binding
# constraint — see bench_snapshot.sh and DESIGN.md §5g) and >= 3x
# faster MatMulT kernels. Comparing the committed files keeps this
# stage deterministic and fast (no re-benchmarking in CI).
if [ -f BENCH_PR6.json ] && [ -f BENCH_PR7.json ]; then
    cargo run --release -p telemetry --bin perf_diff -- \
        BENCH_PR6.json BENCH_PR7.json --threshold -0.35 --only step/update_secs_median
    cargo run --release -p telemetry --bin perf_diff -- \
        BENCH_PR6.json BENCH_PR7.json --threshold -0.6667 --only op/MatMulT/
fi

echo "==> committed-snapshot gate (PR9 metrics plane vs PR7 baseline)"
# The live-metrics plane rides the serve hot path; the committed
# BENCH_PR9.json (same workload as BENCH_PR7.json, plane enabled) must
# hold every wire-path latency inside the general 2x allowance.
# exp_serve additionally asserts plane-on vs plane-off p50/p99 within
# SERVE_PLANE_GATE when it records the snapshot; the measured pair is
# carried in serve/plane_{off,on}_read_p{50,99}_secs.
if [ -f BENCH_PR7.json ] && [ -f BENCH_PR9.json ]; then
    cargo run --release -p telemetry --bin perf_diff -- \
        BENCH_PR7.json BENCH_PR9.json --threshold 1.0
fi

echo "==> committed-snapshot gate (PR10 defense subsystem vs PR9 baseline)"
# The snapshot workload serves undefended, so the defense subsystem
# must be free when absent: the committed BENCH_PR10.json (same
# workload as BENCH_PR9.json) holds every metric inside the general
# 2x allowance.
if [ -f BENCH_PR9.json ] && [ -f BENCH_PR10.json ]; then
    cargo run --release -p telemetry --bin perf_diff -- \
        BENCH_PR9.json BENCH_PR10.json --threshold 1.0
fi

echo "==> repo benchmark smoke (perfbench, every workload, 1 s each)"
# perfbench is its own cargo workspace, so nothing above builds it; a
# facade API change could otherwise break the benchmark unnoticed. It
# exits 0 even when one of its checks fails, so the gate reads the
# verdict off its last output line.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
for workload in attack-bpr attack-neumf serve-mixed; do
    last="$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
    case "$last" in
        *'"correct": true,'*'"failed": 0,'*) ;;
        *) echo "perfbench $workload failed its checks: $last"; exit 1 ;;
    esac
done

echo "CI green."
