#!/bin/sh
# Regenerates every committed ledger under results/ — the five
# BENCH_*.json files and bpbench.txt, the paper's exhibits as tables — and
# fails if any of them moved. Each scripts/bench_<name>.sh says in its
# header why its file is deterministic (simulator, tick clock, or a seeded
# single-goroutine replay), so the committed bytes must reproduce on any
# machine: a diff is a behavioural change to explain or fix, not noise.
# --exit-code makes a drifted ledger fail the job; the stat is printed so
# the log shows exactly which file moved.
set -eu
cd "$(dirname "$0")/.."

for script in scripts/bench_*.sh; do
    sh "$script"
done
git diff --stat --exit-code -- results/
