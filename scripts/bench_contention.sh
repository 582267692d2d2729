#!/bin/sh
# Regenerates results/BENCH_contention.json, the committed baseline for
# the E15 lock-contention anatomy sweep (acquisitions, blocking
# acquisitions, failed TryLocks, wait/hold time per access for pg2Q vs
# pgBat vs pgBatFC at 1..16 processors).
#
# The run is fully deterministic: the simulator, fixed seed, fixed virtual
# duration. Re-running on any machine reproduces the committed file
# byte-for-byte; a diff after a change to internal/core, internal/sim, or
# the lock instrumentation is a real behavioural difference, not noise.
set -eu
cd "$(dirname "$0")/.."

mkdir -p results
go run ./cmd/bpbench -exp contention -format json -duration 500ms -seed 1 \
    > results/BENCH_contention.json
echo "wrote results/BENCH_contention.json"
