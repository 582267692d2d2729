#!/bin/sh
# Regenerate the committed E20 tracing-decomposition baseline.
# The experiment is deterministic (virtual tick clock, seeded
# single-goroutine stream), so the output must reproduce byte-for-byte;
# CI diffs it against the committed results/BENCH_tracing.json. The
# committed numbers ARE the acceptance claim: one retained trace per access
# with zero ring drops, device-read phases only under misses, and no
# lock-wait/policy-op phases on the batched arms' hit traces.
set -eu
cd "$(dirname "$0")/.."
mkdir -p results
go run ./cmd/bpbench -exp tracing -format json -seed 1 > results/BENCH_tracing.json
echo "wrote results/BENCH_tracing.json"
