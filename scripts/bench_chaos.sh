#!/bin/sh
# Regenerates results/BENCH_chaos.json, the committed baseline for the
# chaos experiment (E16): the event ledger of the two-rung health ladder
# (a full quarantine turns the pool read-only and sheds its misses)
# under two scripted fault campaigns on one Fault→Checksum→Retry stack
# under the whole pool — harddown and quarantine pressure.
#
# The run is fully deterministic: retry backoffs are no-op sleeps, fault
# rates are only ever 0 or 1, and a single goroutine drives every
# operation in a fixed order. Re-running on any machine reproduces the
# committed file byte-for-byte; a diff after a change to internal/buffer
# or internal/storage is a real protocol difference (a shed happening
# earlier, a page parking later), not scheduling noise.
set -eu
cd "$(dirname "$0")/.."

mkdir -p results
go run ./cmd/bpbench -exp chaos -format json -seed 1 \
    > results/BENCH_chaos.json
echo "wrote results/BENCH_chaos.json"
