#!/bin/sh
# Regenerates results/BENCH_tuner.json, the committed baseline for the
# tuner experiment (E19): the controller's observation->actuation loop
# run end to end against a deliberately mistuned pool. It replays a loop
# trace through a misconfigured 2Q pool and lets the ghost scorer
# hot-swap the policy.
#
# The run is fully deterministic: single-goroutine replay, direct
# commits, null device, and a controller stepped after every pass rather
# than on a wall-clock ticker. Re-running on any machine reproduces the
# committed file byte-for-byte; a diff after a change to
# internal/control, internal/buffer or internal/replacer is a real
# behavioural difference, not noise. The committed numbers ARE the
# acceptance claim: the controller abandons the misconfigured policy and
# the tuned hit ratio beats the static one.
set -eu
cd "$(dirname "$0")/.."

mkdir -p results
go run ./cmd/bpbench -exp tuner -format json -seed 1 \
    > results/BENCH_tuner.json
echo "wrote results/BENCH_tuner.json"
