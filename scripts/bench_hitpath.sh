#!/bin/sh
# Regenerates results/BENCH_hitpath.json, the committed baseline for the
# hitpath experiment (E17): the hit-path anatomy counters of the lock-free
# resident-read path.
#
# The run is fully deterministic: one goroutine replays a seeded access
# stream over a fully resident pool (null device, direct commits), so the
# counters — accesses, hits, fast hits, retries, fallbacks, bucket/frame
# lock acquisitions — are exact and reproduce byte-for-byte on any
# machine. The committed numbers ARE the acceptance claim: every row must
# show fast == hits and zero lock acquisitions.
set -eu
cd "$(dirname "$0")/.."

mkdir -p results
go run ./cmd/bpbench -exp hitpath -format json -seed 1 \
    > results/BENCH_hitpath.json
echo "wrote results/BENCH_hitpath.json"
