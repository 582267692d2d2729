#!/bin/sh
# Regenerates results/BENCH_server.json, the committed baseline for the
# server experiment (E18): the byte/op ledger of a loopback bpserver
# driven through the binary wire protocol.
#
# The run is fully deterministic: one client replays a seeded op stream
# synchronously per pipelined burst, frames are fixed-length, and the
# counter snapshot is taken at quiescence before any STATS call (the
# STATS JSON is the one variable-length frame). The committed numbers
# pin the wire format's byte accounting — request/response taxonomy,
# bytes in/out, the pool's hit/miss split, and the malformed-frame
# containment count — and reproduce byte-for-byte on any machine. A diff
# means the wire format's byte accounting or request taxonomy changed: a
# compatibility event, not noise.
set -eu
cd "$(dirname "$0")/.."

mkdir -p results
go run ./cmd/bpbench -exp server -format json -seed 1 \
    > results/BENCH_server.json
echo "wrote results/BENCH_server.json"
