#!/usr/bin/env bash
# Records a perf-baseline snapshot (BENCH_*.json) by chaining the
# timing experiment and the serving experiment into one cumulative
# `poisonrec-bench-v1` file (exp_timing writes the attack-loop metrics,
# exp_serve seeds from them via --bench-base and appends the
# connections wire-path p50/p95/p99 grid, the idle keep-alive
# fleet numbers, and the retrain-churn read latency), so future PRs can
# gate against it with `perf_diff` (DESIGN.md §5d–f).
#
#   scripts/bench_snapshot.sh [OUT.json]
#
# OUT defaults to BENCH_PR10.json at the repo root. All workload knobs
# are env-overridable so CI can run a tiny variant into a temp dir:
#
#   BENCH_SCALE=0.02 BENCH_STEPS=1 BENCH_EPISODES=4 BENCH_EVAL_USERS=32 \
#       scripts/bench_snapshot.sh /tmp/BENCH_tiny.json
#
# The seed is fixed so the measured workload (not its wall time) is
# bit-identical across machines; wall times are compared with a
# relative threshold by `perf_diff`, never for equality.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_PR10.json}"
scale="${BENCH_SCALE:-0.05}"
steps="${BENCH_STEPS:-3}"
episodes="${BENCH_EPISODES:-8}"
eval_users="${BENCH_EVAL_USERS:-128}"
threads="${BENCH_THREADS:-4}"
seed="${BENCH_SEED:-7}"
# The over-the-wire replay pays one HTTP round-trip per eval user per
# observation, so it gets its own (smaller) attack cell by default.
serve_steps="${BENCH_SERVE_STEPS:-2}"
serve_episodes="${BENCH_SERVE_EPISODES:-4}"
serve_eval_users="${BENCH_SERVE_EVAL_USERS:-32}"
work_dir="$(mktemp -d)"
trap 'rm -rf "$work_dir"' EXIT

echo "==> cargo build --release (timing + trace tools)"
cargo build --release -p bench -p telemetry >/dev/null

echo "==> exp_timing (scale=$scale steps=$steps episodes=$episodes seed=$seed)"
./target/release/exp_timing \
    --scale "$scale" --steps "$steps" --episodes "$episodes" \
    --eval-users "$eval_users" --threads "$threads" --seed "$seed" \
    --out "$work_dir" \
    --trace "$work_dir/trace.json" \
    --bench-json "$work_dir/BENCH_timing.json"

echo "==> exp_serve (steps=$serve_steps episodes=$serve_episodes eval_users=$serve_eval_users)"
SERVE_ACCESS_LOG="$work_dir/serve_access.jsonl" \
./target/release/exp_serve \
    --scale "$scale" --steps "$serve_steps" --episodes "$serve_episodes" \
    --eval-users "$serve_eval_users" --threads "$threads" --seed "$seed" \
    --rankers itempop \
    --out "$work_dir" \
    --bench-base "$work_dir/BENCH_timing.json" \
    --bench-json "$out"

echo "==> validating the trace and access log behind the snapshot"
./target/release/validate_jsonl --trace "$work_dir/trace.json" \
    --access-log "$work_dir/serve_access.jsonl"
./target/release/trace_report "$work_dir/trace.json" >/dev/null

echo "==> perf_diff self-compare (a fresh snapshot must gate itself)"
./target/release/perf_diff "$out" "$out" >/dev/null

# Gate the full-size snapshot against the previous committed baseline
# (CI's env-shrunken tiny variant is a different workload, so only the
# default full run is comparable). PR7's kernel rewrite must *improve*
# the update hot path, not merely hold it. The binding constraint is
# the 1-core container (DESIGN.md §5g): the pool-parallel paths cannot
# contribute on one core, and the residual update time is bit-pinned
# libm exp/tanh plus per-node bookkeeping, so the end-to-end update
# gate is >= 1.54x (--threshold -0.35, measured ~1.65x with margin for
# timer noise) rather than the multi-core >= 5x target. The MatMulT
# kernels themselves — the part the rewrite owns — must be >= 3x
# faster per call (--threshold -0.6667; measured 5.4x fwd / 3.2x bwd).
# Everything else must stay within the general 2x allowance.
if [ "$out" = "BENCH_PR7.json" ] && [ -f BENCH_PR6.json ]; then
    echo "==> perf_diff vs committed BENCH_PR6.json (2x allowance)"
    ./target/release/perf_diff BENCH_PR6.json "$out" --threshold 1.0
    echo "==> must-improve gate: step/update_secs_median >= 1.54x faster"
    ./target/release/perf_diff BENCH_PR6.json "$out" \
        --threshold -0.35 --only step/update_secs_median
    echo "==> must-improve gate: op/MatMulT/* >= 3x faster"
    ./target/release/perf_diff BENCH_PR6.json "$out" \
        --threshold -0.6667 --only op/MatMulT/
fi

# PR9 adds the live-metrics plane to the serve hot path; the snapshot
# must stay inside the general 2x allowance vs the PR7 baseline, and
# exp_serve itself asserts plane-on vs plane-off read latency within
# SERVE_PLANE_GATE (the serve/plane_{off,on}_read_p{50,99}_secs metrics
# recorded above carry the measured pair).
if [ "$out" = "BENCH_PR9.json" ] && [ -f BENCH_PR7.json ]; then
    echo "==> perf_diff vs committed BENCH_PR7.json (2x allowance)"
    ./target/release/perf_diff BENCH_PR7.json "$out" --threshold 1.0
fi

# PR10 adds the defense subsystem. The snapshot workload serves
# *undefended* (no --defense flag), so the admission judge must cost
# nothing when absent: every attack-loop and wire-path metric stays
# inside the general 2x allowance vs the PR9 baseline.
if [ "$out" = "BENCH_PR10.json" ] && [ -f BENCH_PR9.json ]; then
    echo "==> perf_diff vs committed BENCH_PR9.json (2x allowance)"
    ./target/release/perf_diff BENCH_PR9.json "$out" --threshold 1.0
fi

echo "bench snapshot recorded: $out"
