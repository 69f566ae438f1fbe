#!/usr/bin/env bash
# Compare the benchmark reports of this checkout with those of another commit.
#
#     tools/compare_reports.sh REF [--rtol R] [--atol T] [SEED...]   (seeds default to 5 and 11)
#
# Unpacks REF's committed files into a temporary directory with `git archive`,
# runs tools/dump_reports.py in that copy and in this checkout (uncommitted
# changes included) at each seed, and compares the two trees of each seed.
# Without --rtol or --atol it prints their `diff -r`: no output and exit
# status 0 mean every input and report of the cv-fock, dykstra and small-batch
# workloads is byte-identical, and any difference exits 1. With --rtol R
# and/or --atol T it runs tools/report_drift.py with those bounds on each pair
# of trees instead, which prints every float field that moved and exits 1 on a
# float beyond both bounds or on any other difference; the script exits 1 if
# any seed fails. The copy and the dumps are removed on exit.
set -euo pipefail

usage="usage: $0 REF [--rtol R] [--atol T] [SEED...]"
if [ $# -lt 1 ]; then
    echo "$usage" >&2
    exit 2
fi
ref=$1
shift
bounds=()
while [ $# -ge 1 ] && { [ "$1" = "--rtol" ] || [ "$1" = "--atol" ]; }; do
    if [ $# -lt 2 ]; then
        echo "$usage" >&2
        exit 2
    fi
    bounds+=("$1" "$2")
    shift 2
done
seeds=("$@")
if [ ${#seeds[@]} -eq 0 ]; then
    seeds=(5 11)
fi

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"

status=0
for seed in "${seeds[@]}"; do
    python3 "$tmp/ref/tools/dump_reports.py" "$tmp/ref-$seed" --seed "$seed" > /dev/null
    python3 "$root/tools/dump_reports.py" "$tmp/this-$seed" --seed "$seed" > /dev/null
    if [ ${#bounds[@]} -eq 0 ]; then
        diff -r "$tmp/ref-$seed" "$tmp/this-$seed" || status=1
    else
        python3 "$root/tools/report_drift.py" "$tmp/ref-$seed" "$tmp/this-$seed" \
            "${bounds[@]}" || status=1
    fi
done
exit $status
