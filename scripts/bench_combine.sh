#!/bin/sh
# Regenerates results/BENCH_combine.json, the committed benchmark baseline
# for the commit-path comparison (baseline vs batched vs flat-combined).
#
# The run is fully deterministic: the simulator, fixed seed, fixed virtual
# duration. Re-running on any machine reproduces the committed file
# byte-for-byte; a diff after a change to internal/core or internal/sim is
# a real behavioural difference, not noise.
set -eu
cd "$(dirname "$0")/.."

mkdir -p results
go run ./cmd/bpbench -exp combine -format json -duration 500ms -seed 1 \
    > results/BENCH_combine.json
echo "wrote results/BENCH_combine.json"
