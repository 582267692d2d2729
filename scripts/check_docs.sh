#!/bin/sh
# Fails when the docs name what the tree does not have. Eight checks and a
# size cap:
#
#  1. Every back-quoted bpw_* metric name in README.md, DESIGN.md and
#     EXPERIMENTS.md, and every bpw_* name in the doc comments and help text
#     of cmd/*, must occur in a non-test Go file outside cmd/ (the packages
#     that emit the series; a command's own text cannot vouch for itself).
#     `bpw_x_*` is a prefix; `bpw_x_a/b/c` names bpw_x_a, bpw_x_b, bpw_x_c.
#  2. Every "ROADMAP N", "ROADMAP N(x)" or "ROADMAP item N" in Go code,
#     scripts, workflows, README.md, DESIGN.md and EXPERIMENTS.md must name
#     an item of ROADMAP.md's open list (a line "N. **...").
#  3. Every back-quoted span of README.md, DESIGN.md and EXPERIMENTS.md that
#     is a Test…, Benchmark…, Example… or Fuzz… name (a /subtest suffix is
#     stripped) must be a func in some _test.go. An allow-list entry for
#     such a name is "DOC NAME": it excuses that one doc only.
#  4. Every bpwrapper.<Name> token (an exported name after the package
#     qualifier) anywhere in README.md, DESIGN.md and EXPERIMENTS.md, code
#     blocks included, must be declared in bpwrapper.go. An allow-list
#     entry is "DOC bpwrapper.Name", as for check 3.
#  5. Every Pool.<Name> token (an exported name after "Pool.", not part of
#     a longer identifier) in those three docs must be a method declared on
#     *Pool in a non-test file under internal/buffer. An allow-list entry
#     is "DOC Pool.Name".
#  6. Every back-quoted span of those three docs that starts with a command
#     (bpserver, bpload, bpbench, bpsim, bpstat, bptrace) may name only
#     flags (-x or --x, up to the first |, ; or &) that cmd/<command>/main.go
#     declares through flag.* or fs.*, or the flag package's own -h. An
#     allow-list entry is "DOC command -flag".
#  7. Every "DESIGN.md §N" or "DESIGN §N" (and each further "/§M" of it) in
#     Go code, scripts, workflows, README.md and EXPERIMENTS.md, and every
#     bare "§N" with an arabic N inside DESIGN.md, must name a heading
#     "## N." of DESIGN.md. CHANGES.md and results/ are history and are not
#     read.
#  8. In a back-quoted span of README.md, DESIGN.md and EXPERIMENTS.md, the
#     first exported name after an internal package's qualifier (core.X,
#     internal/workload.X) must be declared in a non-test file of that
#     package: a func, method, type, var, const or struct field. What
#     follows it (Config.Field) is not checked. An allow-list entry is
#     "DOC pkg.Name".
#  And DESIGN.md must stay at or under 60,000 bytes: it describes the code
#  as it is, and what was goes to CHANGES.md.
#
# Checks 3 to 6 and 8 read a back-quoted span only when it opens and
# closes on one line.
# A name or reference that is only history goes on the allow-list below,
# one per line, with no reason needed beyond the history it records.
set -eu
cd "$(dirname "$0")/.."

allow='
# E22 is a row of timings of the bare wrapper hit with the flight recorder
# on and off; the benchmark left when the wrapper stopped recording commits.
EXPERIMENTS.md BenchmarkWrapperHitObs
# bpbench -mode real ran the wall-clock arms of the experiments until the
# benchmark/ module replaced them.
EXPERIMENTS.md bpbench -mode
'

allowed() { printf '%s\n' "$allow" | grep -qxF "$1"; }

fail=0

# The emitters: non-test Go files outside cmd/ and the benchmark's build.
src="$(find . -name '*.go' ! -name '*_test.go' ! -path './cmd/*' ! -path './.bench_build/*' ! -path './benchmark/out/*')"

# Back-quoted spans of the three docs, then the bpw_* names inside them.
doc_names="$(grep -hoE '`[^`]+`' README.md DESIGN.md EXPERIMENTS.md | grep -oE 'bpw_[a-z0-9_]+(/[a-z0-9_]+)*\*?' || true)"
# The commands' doc comments and flag help, which is all the prose they have.
cmd_names="$(find cmd -name '*.go' ! -name '*_test.go' -exec grep -hE '^[[:space:]]*//|flag\.[A-Za-z0-9]+\(' {} + |
    grep -oE 'bpw_[a-z0-9_]+(/[a-z0-9_]+)*\*?' || true)"

for tok in $(printf '%s\n%s\n' "$doc_names" "$cmd_names" | sort -u); do
    allowed "$tok" && continue
    first="${tok%%/*}"
    names="$first"
    if [ "$tok" != "$first" ]; then
        prefix="${first%_*}_"
        for rest in $(printf '%s\n' "${tok#*/}" | tr '/' ' '); do
            names="$names $prefix$rest"
        done
    fi
    for name in $names; do
        name="${name%\*}"
        # shellcheck disable=SC2086 # $src is a list of paths without spaces
        if ! grep -qF "$name" $src; then
            echo "check_docs: $tok (in the docs or cmd help): $name occurs in no non-test Go file outside cmd/" >&2
            fail=1
        fi
    done
done

# The files whose citations of ROADMAP and DESIGN sections are checked.
cites="$(find . \( -name '*.go' -o -name '*.sh' -o -name '*.yml' -o -name '*.yaml' \) \
    ! -path './.bench_build/*' ! -path './.git/*') ./README.md ./EXPERIMENTS.md"
# A file's text with comment markers dropped and lines joined, so that a
# reference wrapped across two comment lines is still one reference.
joined() { sed -E 's,^[[:space:]]*(//|#)[[:space:]]?,,' "$1" | tr '\n' ' '; }

items="$(grep -oE '^[0-9]+\. \*\*' ROADMAP.md | sed 's/\..*//' | sort -u)"
for f in $cites ./DESIGN.md; do
    for n in $(joined "$f" |
        grep -oE 'ROADMAP(\.md)?[[:space:]]+(item[[:space:]]+)?[0-9]+' | grep -oE '[0-9]+$' | sort -u); do
        allowed "ROADMAP item $n" && continue
        if ! printf '%s\n' "$items" | grep -qx "$n"; then
            echo "check_docs: $f cites ROADMAP item $n, which ROADMAP.md does not have" >&2
            fail=1
        fi
    done
done

sections="$(grep -oE '^## [0-9]+\.' DESIGN.md | grep -oE '[0-9]+' | sort -u)"
for f in $cites ./DESIGN.md; do
    if [ "$f" = ./DESIGN.md ]; then
        refs="$(grep -oE '§[0-9]+' DESIGN.md || true)"
    else
        refs="$(joined "$f" | grep -oE 'DESIGN(\.md)?[[:space:]]+§[0-9]+(/§[0-9]+)*' || true)"
    fi
    for n in $(printf '%s\n' "$refs" | grep -oE '§[0-9]+' | tr -d '§' | sort -u); do
        if ! printf '%s\n' "$sections" | grep -qx "$n"; then
            echo "check_docs: $f cites DESIGN.md §$n, which has no heading \"## $n.\"" >&2
            fail=1
        fi
    done
done
size="$(wc -c <DESIGN.md)"
if [ "$size" -gt 60000 ]; then
    echo "check_docs: DESIGN.md is $size bytes, over its 60000" >&2
    fail=1
fi

funcs="$(grep -rhoE --include='*_test.go' '^func (Test|Benchmark|Example|Fuzz)[A-Za-z0-9_]*' . | sed 's/^func //' | sort -u)"
for doc in README.md DESIGN.md EXPERIMENTS.md; do
    for name in $(grep -oE '`[^`]+`' "$doc" | tr -d '`' |
        grep -E '^(Test|Benchmark|Example|Fuzz)[A-Za-z0-9_]*(/[^[:space:]]*)?$' | sed 's,/.*,,' | sort -u); do
        allowed "$doc $name" && continue
        if ! printf '%s\n' "$funcs" | grep -qxF "$name"; then
            echo "check_docs: $doc names $name, which is no func in a _test.go" >&2
            fail=1
        fi
    done
done

# The facade's names: top-level declarations, and the names of grouped
# type/var/const blocks (a tab, the name, then "=").
facade="$(grep -oE '^(func|type|var|const) [A-Z][A-Za-z0-9_]*|^	[A-Z][A-Za-z0-9_]*[[:space:]]+=' bpwrapper.go |
    sed -E 's/^(func|type|var|const) //; s/^	//; s/[[:space:]]*=$//' | sort -u)"
for doc in README.md DESIGN.md EXPERIMENTS.md; do
    for tok in $(grep -oE 'bpwrapper\.[A-Z][A-Za-z0-9_]*' "$doc" | sort -u); do
        allowed "$doc $tok" && continue
        if ! printf '%s\n' "$facade" | grep -qxF "${tok#bpwrapper.}"; then
            echo "check_docs: $doc names $tok, which bpwrapper.go does not declare" >&2
            fail=1
        fi
    done
done
# The pool's methods, as declared on *Pool.
methods="$(find internal/buffer -name '*.go' ! -name '*_test.go' -exec grep -ohE '^func \([a-z]+ \*Pool\) [A-Z][A-Za-z0-9_]*' {} + |
    sed -E 's/.* //' | sort -u)"
for doc in README.md DESIGN.md EXPERIMENTS.md; do
    for tok in $(grep -oE '(^|[^A-Za-z0-9_])Pool\.[A-Z][A-Za-z0-9_]*' "$doc" | sed -E 's/^[^P]*//' | sort -u); do
        allowed "$doc $tok" && continue
        if ! printf '%s\n' "$methods" | grep -qxF "${tok#Pool.}"; then
            echo "check_docs: $doc names $tok, which is no method of *Pool in internal/buffer" >&2
            fail=1
        fi
    done
done
# The commands' flags, as "command:-flag" tokens of the spans that name
# them; each is checked against the flag.* and fs.* calls of its main.go.
for doc in README.md DESIGN.md EXPERIMENTS.md; do
    for tok in $(grep -oE '`[^`]+`' "$doc" | tr -d '`' | sed 's/[|;&].*//' |
        awk '$1 ~ /^(bpserver|bpload|bpbench|bpsim|bpstat|bptrace)$/ {
            for (i = 2; i <= NF; i++) if ($i ~ /^--?[A-Za-z]/) {
                f = $i; sub(/^--/, "-", f); sub(/=.*/, "", f); print $1 ":" f
            }
        }' | sort -u); do
        cmd="${tok%%:*}" flag="${tok#*:}"
        { [ "$flag" = -h ] || allowed "$doc $cmd $flag"; } && continue
        if ! grep -oE '(flag|fs)\.[A-Z][A-Za-z0-9]*\([^"]*"[^"]*"' "cmd/$cmd/main.go" |
            sed -E 's/.*"([^"]*)"$/-\1/' | grep -qxF -- "$flag"; then
            echo "check_docs: $doc names \`$cmd $flag\`, a flag cmd/$cmd/main.go does not declare" >&2
            fail=1
        fi
    done
done
# Names after an internal package's qualifier, as "pkg.Name" tokens of
# the spans; each is looked up among the declarations of the package's
# non-test files (top level, or indented as in a group or a struct).
pkgs="$(find internal -mindepth 1 -maxdepth 1 -type d -exec basename {} \; | tr '\n' '|' | sed 's/|$//')"
for doc in README.md DESIGN.md EXPERIMENTS.md; do
    for tok in $(grep -oE '`[^`]+`' "$doc" |
        grep -oE "(^|[^A-Za-z0-9_./])(internal/)?($pkgs)\.[A-Z][A-Za-z0-9_]*" |
        sed -E 's,^[^a-z]*(internal/)?,,' | sort -u); do
        allowed "$doc $tok" && continue
        pkg="${tok%%.*}" name="${tok#*.}"
        files="$(find "internal/$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go')"
        # shellcheck disable=SC2086 # $files is a list of paths without spaces
        if ! grep -qE "^(func|type|var|const) $name([^A-Za-z0-9_]|\$)|^func \([^)]*\) $name\(|^[[:space:]]+([A-Z][A-Za-z0-9_]*, )*$name([[:space:],]|\$)" $files; then
            echo "check_docs: $doc names \`$tok\`, which no non-test file of internal/$pkg declares" >&2
            fail=1
        fi
    done
done
exit $fail
