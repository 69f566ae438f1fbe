#!/usr/bin/env bash
# Compare the benchmark reports of this checkout with those of another commit.
#
#     tools/compare_reports.sh REF [SEED...]      (seeds default to 5 and 11)
#
# Unpacks REF's committed files into a temporary directory with `git archive`,
# runs tools/dump_reports.py in that copy and in this checkout (uncommitted
# changes included) at each seed, and prints `diff -r` of the two trees. No
# output and exit status 0 mean every input and report of the cv-fock, dykstra
# and small-batch workloads is byte-identical; any difference exits 1. The
# copy and the dumps are removed on exit.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: $0 REF [SEED...]" >&2
    exit 2
fi
ref=$1
shift
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
    diff -r "$tmp/ref-$seed" "$tmp/this-$seed" || status=1
done
exit $status
