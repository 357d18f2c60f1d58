#!/usr/bin/env bash
# figures.sh — the paper figures have not moved.
#
# Builds cmd/expt, runs every experiment, and requires the output up to the
# "Fault sweep" heading — Figures 6–11, Experiment 3, Table 2, the
# intrusiveness and granularity extensions: everything that is virtual time
# on the classic deployment — to be byte-identical to the committed
# experiments_output.txt. What follows that heading is left out: the
# recovery table reports wall-clock milliseconds.
#
# A refactor that claims "no behaviour change" passes this; a change that
# moves a figure regenerates the file and says which cost moved. ~10 s.
# Run locally with: ./scripts/figures.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
go build -o "$out/expt" ./cmd/expt
"$out/expt" -run all | sed '/^Fault sweep/,$d' > "$out/figures.txt"
if ! diff -u experiments_output.txt "$out/figures.txt"; then
    echo "figures: FAIL — expt -run all differs from experiments_output.txt" >&2
    exit 1
fi
echo "figures: ok ($(wc -l < "$out/figures.txt") lines byte-identical to experiments_output.txt)"
