#!/usr/bin/env bash
# Compares two revisions on the repository benchmark (perfbench,
# BENCHMARK.json) as alternated pairs, then judges them with perf_diff.
#
#   scripts/perf_pairs.sh PARENT CHANGE WORKLOAD [PAIRS=10] [SEED0=1]
#
# Each revision is checked out as a detached git worktree under
# target/perf_pairs/src/ (removed on exit) and perfbench is built there
# with --release --offline into one cargo target dir per resolved
# commit, target/perf_pairs/build/<commit>.
# Pair i runs both sides at seed SEED0+i for BENCHMARK.json's
# run_seconds with --trace 0; the parent goes first on even pairs and
# the change on odd ones. Each run's manifest line (nproc, git rev) and
# result line are appended to parent.jsonl / change.jsonl in
# target/perf_pairs/<parent>-<change>-<workload>-s<seed0>/, which starts
# empty. The exit code is perf_diff's: 0 pass, 1 failed verdict, 2 bad
# input (DESIGN.md §5d).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    echo "usage: scripts/perf_pairs.sh PARENT CHANGE WORKLOAD [PAIRS=10] [SEED0=1]" >&2
    exit 2
fi
parent="$(git rev-parse --verify "$1^{commit}")"
change="$(git rev-parse --verify "$2^{commit}")"
workload="$3"
pairs="${4:-10}"
seed0="${5:-1}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)"
root="$PWD/target/perf_pairs"
out="$root/${parent:0:7}-${change:0:7}-$workload-s$seed0"

cleanup() {
    for rev in "$parent" "$change"; do
        git worktree remove --force "$root/src/$rev" 2>/dev/null || true
    done
    git worktree prune
}
trap cleanup EXIT

cargo build --release --quiet -p telemetry --bin perf_diff
for rev in "$parent" "$change"; do
    [ -d "$root/src/$rev" ] || git worktree add --quiet --detach "$root/src/$rev" "$rev"
    echo "==> building perfbench at $rev"
    CARGO_TARGET_DIR="$root/build/$rev" cargo build --release --quiet --offline \
        --manifest-path "$root/src/$rev/perfbench/Cargo.toml"
done

mkdir -p "$out"
: > "$out/parent.jsonl"
: > "$out/change.jsonl"

# run SIDE SEED: one benchmark run, its last two lines appended to
# SIDE.jsonl. perfbench reads its rev from .git/HEAD, which a worktree
# does not have (.git is a file there), so the manifest gets it here.
run() {
    local rev="${!1}"
    echo "==> $workload seed $2: $1 ($rev)"
    (cd "$root/src/$rev" && "$root/build/$rev/release/perfbench" \
        --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0) |
        tail -n 2 | sed "s/\"git_rev\": \"unknown\"/\"git_rev\": \"$rev\"/" >> "$out/$1.jsonl"
}

for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    if ((i % 2 == 0)); then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
done

echo "==> verdict ($out)"
./target/release/perf_diff BENCHMARK.json "$out/parent.jsonl" "$out/change.jsonl"
