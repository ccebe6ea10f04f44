#!/bin/sh
# Print non-test Go lines per package and in total, excluding the
# benchmark module (bench/) and its build leftovers — the size figure
# ROADMAP aim 2 ("the same behaviour and speed from less") tracks:
#
#     scripts/loc.sh
#
# scripts/loc.max holds the total this may not exceed (CI's "LOC ratchet"
# step); a change that shrinks the tree lowers it in the same commit.
set -e
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' |
    while read -r f; do
        printf '%s %s\n' "$(dirname "$f")" "$(wc -l < "$f")"
    done |
    awk '{ n[$1] += $2; total += $2 }
         END { for (p in n) printf "%6d %s\n", n[p], p; printf "%6d total\n", total }' |
    sort -k2
