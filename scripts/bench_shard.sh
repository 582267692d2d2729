#!/bin/sh
# Regenerates results/BENCH_shard.json, the committed baseline for the
# shard experiment (E14): the hit-ratio cost of fragmenting replacement
# history across per-shard policy instances.
#
# The run is fully deterministic: the hit sweep replays one recorded
# trace sequentially through a real pool with direct commits and a null
# device, so there is no timing, no scheduling, and no throughput in the
# output. Re-running on any machine reproduces the committed file
# byte-for-byte; a diff after a change to internal/buffer or
# internal/replacer is a real behavioural difference, not noise.
set -eu
cd "$(dirname "$0")/.."

mkdir -p results
go run ./cmd/bpbench -exp shard -format json -seed 1 \
    > results/BENCH_shard.json
echo "wrote results/BENCH_shard.json"
