#!/usr/bin/env bash
# Metric-name lint: the README metrics reference table must list
# exactly the metric names registered by production code — no stale
# rows after a rename, no undocumented instruments (DESIGN.md §5i).
#
#   scripts/lint_metrics.sh
#
# Source side: every `metrics::` / `stream::` registration call in
# crates/*/src, plus every `telemetry::span!("cat", "name")`, which
# registers the histogram `cat_name_seconds`. Registration calls may
# wrap across lines (rustfmt puts the name literal on the line after
# `counter_family_with_cap(` etc.), so the scan carries a two-line
# lookahead for the first string literal after the call opener.
#
# Doc side: the first backticked identifier of each table row between
# the `<!-- metrics-table-start -->` / `<!-- metrics-table-end -->`
# markers in README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

src_names="$(
    # shellcheck disable=SC2046 # find output is one path per token
    awk '
        /(metrics|stream)::(counter|gauge|histogram|windowed_counter|windowed_histogram|counter_family|counter_family_with_cap|detector)\(/ {
            pending = 2
        }
        pending > 0 {
            if (match($0, /"[a-z][a-z0-9_]*"/)) {
                print substr($0, RSTART + 1, RLENGTH - 2)
                pending = 0
            } else {
                pending--
            }
        }
        match($0, /telemetry::span!\("[a-z0-9_]+", "[a-z0-9_]+"\)/) {
            split(substr($0, RSTART + 18, RLENGTH - 20), parts, "\", \"")
            print parts[1] "_" parts[2] "_seconds"
        }
    ' $(find crates/*/src -name '*.rs') | sort -u
)"

doc_names="$(
    awk '/<!-- metrics-table-start -->/ { in_table = 1; next }
         /<!-- metrics-table-end -->/ { in_table = 0 }
         in_table && /^\|/ {
             if (match($0, /`[a-z][a-z0-9_]*`/)) {
                 print substr($0, RSTART + 1, RLENGTH - 2)
             }
         }' README.md | sort -u
)"

if [ -z "$doc_names" ]; then
    echo "lint_metrics: no names found between the metrics-table markers in README.md" >&2
    exit 1
fi

status=0
undocumented="$(comm -23 <(echo "$src_names") <(echo "$doc_names"))"
if [ -n "$undocumented" ]; then
    echo "lint_metrics: registered in code but missing from the README table:" >&2
    echo "$undocumented" | sed 's/^/    /' >&2
    status=1
fi
stale="$(comm -13 <(echo "$src_names") <(echo "$doc_names"))"
if [ -n "$stale" ]; then
    echo "lint_metrics: listed in the README table but never registered:" >&2
    echo "$stale" | sed 's/^/    /' >&2
    status=1
fi

if [ "$status" -eq 0 ]; then
    count="$(echo "$src_names" | wc -l)"
    echo "lint_metrics: README table matches the $count registered metric names"
fi
exit "$status"
