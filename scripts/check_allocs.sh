#!/bin/sh
# Gates CI on the allocation counts of the paths that must not allocate: a
# resident Get, a miss, a device write, and a page served over the wire
# (one GET round trip; one op of a 16-op Do burst). Wall-clock figures
# from the benchmark vary run to run and only warn; these counts repeat
# exactly (ROADMAP: "counts resolve where the clock does not"), so a
# regression here is a real one — an op, a
# channel or a closure back on the miss path, a copy of the victim, a policy
# node per admit, a copy of a page into a buffer of its own on either side of
# the socket.
#
# Runs the mem_churn workload's per-layer pass for three seconds and reads
# the report it writes with --out (into run.sh's gitignored build directory);
# the server legs run in every --trace 1 pass, whatever the workload.
set -eu
cd "$(dirname "$0")/.."

out=.bench_build/check_allocs.json
sh benchmark/run.sh --workload mem_churn --seed 1 --seconds 3 --trace 1 --out "$out" > /dev/null

# value NAME prints the "value" of per-layer metric NAME from the indented
# JSON report: the line after the one that opens the metric's object.
value() {
    awk -v key="\"$1\": {" '
        index($0, key) { getline; sub(/^.*: */, ""); sub(/,.*$/, ""); print; found = 1; exit }
        END { if (!found) exit 1 }
    ' "$out"
}

fail=0
check() { # NAME LIMIT
    v="$(value "$1")" || { echo "check_allocs: $1 missing from the report" >&2; fail=1; return; }
    if awk -v v="$v" -v max="$2" 'BEGIN { exit !(v > max) }'; then
        echo "check_allocs: $1 = $v, want <= $2" >&2
        fail=1
    else
        echo "$1 = $v (<= $2)"
    fi
}
check buffer.allocs_per_get_hit 0
check buffer.allocs_per_get_miss 1
check storage.allocs_per_write 0
check server.allocs_per_get 0
check server.allocs_per_do16_op 0.5
exit $fail
