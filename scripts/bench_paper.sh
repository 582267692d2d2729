#!/bin/sh
# Regenerates results/bpbench.txt: every experiment of `bpbench -exp all`
# in its paper-shaped table, at the documented -duration 500ms -seed 1.
# It is the drift guard of the ten exhibits that have no BENCH_*.json —
# fig2, fig6, fig7, fig8, tab2, tab3 (the paper's own) and ablation-queue,
# ablation-policy, distributed, adaptive — and it repeats, as tables, the
# five experiments the other bench_*.sh scripts keep as JSON.
#
# The run is fully deterministic: the simulator counts virtual time, the
# pool replays run one seeded goroutine against a tick clock, and the one
# host-dependent reading bpbench takes — how long each experiment took —
# goes to stderr, not into the file. Re-running on any machine reproduces
# the committed file byte-for-byte; a diff after a change to internal/sim,
# internal/core, internal/buffer or internal/replacer is a behavioural
# difference to explain, not noise.
#
# Cost: about 5.5 minutes, nearly all of it the simulator (fig6, fig7, tab2
# and tab3 are 15-45 s each); scripts/check_ledgers.sh grows from about 2
# to about 7.5 minutes by running it.
set -eu
cd "$(dirname "$0")/.."

mkdir -p results
go run ./cmd/bpbench -exp all -duration 500ms -seed 1 \
    > results/bpbench.txt
echo "wrote results/bpbench.txt"
