#!/bin/sh
# Fails when the docs name what the tree does not have. Eleven checks and
# two size caps:
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
#     stripped) must be a func in some _test.go; such a name ending in *
#     is a glob and must match at least one. An allow-list entry for such a
#     name is "DOC NAME": it excuses that one doc only.
#  4. Every bpwrapper.<Name> token (an exported name after the package
#     qualifier) anywhere in README.md, DESIGN.md and EXPERIMENTS.md, code
#     blocks included, must be declared in bpwrapper.go. An allow-list
#     entry is "DOC bpwrapper.Name", as for check 3.
#  5. Every Pool.<Name> token (an exported name after "Pool.", not part of
#     a longer identifier) in those three docs must be a method declared on
#     *Pool in a non-test file under internal/buffer. An allow-list entry
#     is "DOC Pool.Name".
#  6. Every back-quoted span of those three docs that starts with a command
#     (bpserver, bpload, bpbench, bpstat, bptrace) may name only
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
#     package: a func, method, type, var, const or struct field. When that
#     name is a struct type of the package and a .member follows it
#     (core.Config.Batching), the member must be a field or method of the
#     type, directly or through an embedded field. An allow-list entry is
#     "DOC pkg.Name" or "DOC pkg.Name.member".
#  9. Every back-quoted span of those three docs that is one lowerCamel
#     identifier (stealPage), or Type.name with a lower-case name
#     (Session.round), must be declared in a non-test Go file: the
#     identifier as a func, method, type, var, const, struct field or a name
#     of a const/var/type group; Type.name as a method or field of a type of
#     that name, directly or through an embedded field. A span whose first
#     part is all capitals (DESIGN.md) is a file name and is not read. An
#     allow-list entry is "DOC name" or "DOC Type.name".
# 10. Every word of a back-quoted span of those three docs that contains a
#     "/" and names a file (ends in .go, .sh, .json, .md or .yml) or starts
#     with a top-level directory (internal/buffer, ./cmd/bpstat) must
#     resolve from the repo root or from internal/ (buffer/manager.go); a
#     word with a * is a glob and must match at least one path. A word
#     starting with "/" is a URL path (/debug/events) and is not read. An
#     allow-list entry is "DOC path".
# 11. Check 6 beyond the spans: every -flag (or --flag) written after a
#     command's name (bpserver, or a path ending in /bpserver, and so on for
#     every directory of cmd/), on the same line and before the next | ; &
#     # ( ) or back-quote, in README.md, DESIGN.md, EXPERIMENTS.md, scripts/
#     and .github/workflows/, must be a flag that cmd/<command>/main.go
#     declares, or -h. A line ending in \ goes on with the next. This
#     script is not read: its allow-list names retired flags. One loop
#     checks 6 and 11; an allow-list entry is "FILE command -flag".
#  And DESIGN.md must stay at or under 60,000 bytes: it describes the code
#  as it is, and what was goes to CHANGES.md. CHANGES.md's newest entry,
#  from its last "- PR N:" line to the end with its FOUND and MENDED lines,
#  must stay at or under 6,144 bytes: the runs behind it go in
#  results/prN_runs.md.
#
# Checks 3 to 6 and 8 to 10 read a back-quoted span only when it opens and
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
# E21 records the policy-metadata index that the slot-indexed slab replaced.
EXPERIMENTS.md prefetchIndex
# The buffer descriptor of PostgreSQL, whose state word the frame follows.
README.md BufferDesc.state
DESIGN.md BufferDesc.state
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
start="$(grep -nE '^- PR [0-9]+:' CHANGES.md | tail -n 1 | cut -d: -f1)"
size="$(tail -n "+$start" CHANGES.md | wc -c)"
if [ "$size" -gt 6144 ]; then
    echo "check_docs: CHANGES.md's newest entry (line $start on) is $size bytes, over its 6144" >&2
    fail=1
fi

funcs="$(grep -rhoE --include='*_test.go' '^func (Test|Benchmark|Example|Fuzz)[A-Za-z0-9_]*' . | sed 's/^func //' | sort -u)"
for doc in README.md DESIGN.md EXPERIMENTS.md; do
    for name in $(grep -oE '`[^`]+`' "$doc" | tr -d '`' |
        grep -E '^(Test|Benchmark|Example|Fuzz)[A-Za-z0-9_]*(\*|/[^[:space:]]*)?$' | sed 's,/.*,,' | sort -u); do
        allowed "$doc $name" && continue
        case "$name" in
        *\*)
            if ! printf '%s\n' "$funcs" | grep -q "^${name%\*}"; then
                echo "check_docs: $doc names $name, which matches no func in a _test.go" >&2
                fail=1
            fi ;;
        *)
            if ! printf '%s\n' "$funcs" | grep -qxF "$name"; then
                echo "check_docs: $doc names $name, which is no func in a _test.go" >&2
                fail=1
            fi ;;
        esac
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
# The commands' flags (checks 6 and 11), as "file:command:-flag" tokens: a
# back-quote ends a segment as | ; & # ( and ) do, so a span's flags are
# those after the command that opens it.
cmds="$(find cmd -mindepth 1 -maxdepth 1 -type d -exec basename {} \; | tr '\n' '|' | sed 's/|$//')"
flagged="README.md DESIGN.md EXPERIMENTS.md $(find scripts .github/workflows -type f ! -name check_docs.sh | sort)"
# shellcheck disable=SC2086 # $flagged is a list of paths without spaces
for tok in $(awk -v cmds="^(.*/)?($cmds)\$" '
    FNR == 1 { held = "" }
    /\\$/ { held = held substr($0, 1, length($0) - 1) " "; next }
    {
        line = held $0; held = ""
        gsub(/[|;&#()`]/, "\n", line)
        n = split(line, seg, "\n")
        for (s = 1; s <= n; s++) {
            cmd = ""
            m = split(seg[s], w, /[ \t]+/)
            for (i = 1; i <= m; i++) {
                t = w[i]; sub(/^[[\"'\'']+/, "", t); sub(/[]\"'\'',.:]+$/, "", t)
                if (t ~ cmds) {
                    cmd = t; sub(/.*\//, "", cmd)
                } else if (cmd != "" && t ~ /^--?[A-Za-z]/) {
                    sub(/^--/, "-", t); sub(/=.*/, "", t); print FILENAME ":" cmd ":" t
                }
            }
        }
    }' $flagged | sort -u); do
    doc="${tok%%:*}" rest="${tok#*:}"
    cmd="${rest%%:*}" flag="${rest#*:}"
    { [ "$flag" = -h ] || allowed "$doc $cmd $flag"; } && continue
    if ! grep -oE '(flag|fs)\.[A-Z][A-Za-z0-9]*\([^"]*"[^"]*"' "cmd/$cmd/main.go" |
        sed -E 's/.*"([^"]*)"$/-\1/' | grep -qxF -- "$flag"; then
        echo "check_docs: $doc names \`$cmd $flag\`, a flag cmd/$cmd/main.go does not declare" >&2
        fail=1
    fi
done
# Every declaration of the non-test Go files, one a line: "dir name" for a
# func, method, type, var, const, struct field or group member; "dir
# Type.name" for a method or field; "dir struct Type" for a struct type;
# "dir embed Type Field" for an embedded field.
decls="$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -exec awk '
    FNR == 1 { dir = FILENAME; sub(/^\.\//, "", dir); sub(/\/[^\/]*$/, "", dir); group = ""; st = "" }
    { line = $0; sub(/\/\/.*/, "", line) }
    st != "" {
        if (depth == 1 && match(line, /^[ \t]+\*?[A-Za-z_][A-Za-z0-9_.]*[ \t]*$/)) {
            e = line; gsub(/[ \t*]/, "", e); sub(/.*\./, "", e)
            print dir, e; print dir, st "." e; print dir, "embed", st, e
        } else if (depth == 1 && match(line, /^[ \t]+[A-Za-z_][A-Za-z0-9_]*(, *[A-Za-z_][A-Za-z0-9_]*)*[ \t]/)) {
            n = split(substr(line, RSTART, RLENGTH), f, /[ \t,]+/)
            for (i = 1; i <= n; i++) if (f[i] != "") { print dir, f[i]; print dir, st "." f[i] }
        }
        depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
        if (depth <= 0) st = ""
        next
    }
    group != "" && /^\)/ { group = ""; next }
    match(line, /^[ \t]*(type[ \t]+)?[A-Za-z_][A-Za-z0-9_]*(\[[^]]*\])?[ \t]+struct[ \t]*\{/) &&
        (line ~ /^[ \t]*type[ \t]/ || group == "type") {
        t = line; sub(/^[ \t]*(type[ \t]+)?/, "", t); sub(/[^A-Za-z0-9_].*/, "", t)
        print dir, t; print dir, "struct", t
        depth = gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
        if (depth > 0) st = t
        next
    }
    group != "" && match(line, /^\t[A-Za-z_][A-Za-z0-9_]*(, *[A-Za-z_][A-Za-z0-9_]*)*/) {
        n = split(substr(line, 2, RLENGTH - 1), f, /[ ,]+/)
        for (i = 1; i <= n; i++) if (f[i] != "") print dir, f[i]
        next
    }
    /^(const|var|type)[ \t]*\(/ { group = $1; sub(/\(.*/, "", group); next }
    match(line, /^func[ \t]*\([^)]*\)[ \t]*[A-Za-z_][A-Za-z0-9_]*/) {
        r = substr(line, RSTART, RLENGTH); m = r; sub(/.*[) \t]/, "", m)
        sub(/^func[ \t]*\(/, "", r); sub(/\).*/, "", r); sub(/\[.*/, "", r); sub(/.*[ \t*]/, "", r)
        print dir, m; print dir, r "." m
        next
    }
    match(line, /^[ \t]*(func|type|var|const)[ \t]+[A-Za-z_][A-Za-z0-9_]*/) {
        split(substr(line, RSTART, RLENGTH), f, /[ \t]+/); print dir, f[f[1] == "" ? 3 : 2]
    }
' {} + | sort -u)"
# has_member TYPE NAME [DEPTH]: NAME is a method or field of a type named TYPE
# in DIR (any directory when DIR is empty), directly or through an embedded
# field.
has_member() {
    printf '%s\n' "$decls" | grep -qE "^${DIR:-[^ ]+} $1\.$2\$" && return 0
    [ "${3:-0}" -ge 3 ] && return 1
    for e in $(printf '%s\n' "$decls" | awk -v t="$1" '$2 == "embed" && $3 == t { print $4 }' | sort -u); do
        has_member "$e" "$2" $((${3:-0} + 1)) && return 0
    done
    return 1
}
# Names after an internal package's qualifier, as "pkg.Name" tokens of
# the spans, with the ".member" that follows, if any; each name is looked
# up among the declarations of the package's non-test files.
pkgs="$(find internal -mindepth 1 -maxdepth 1 -type d -exec basename {} \; | tr '\n' '|' | sed 's/|$//')"
for doc in README.md DESIGN.md EXPERIMENTS.md; do
    for tok in $(grep -oE '`[^`]+`' "$doc" |
        grep -oE "(^|[^A-Za-z0-9_./])(internal/)?($pkgs)\.[A-Z][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?" |
        sed -E 's,^[^a-z]*(internal/)?,,' | sort -u); do
        pkg="${tok%%.*}" rest="${tok#*.}"
        name="${rest%%.*}" member="${rest#"$name"}" member="${member#.}"
        allowed "$doc $pkg.$name" && continue
        if ! printf '%s\n' "$decls" | grep -qxF "internal/$pkg $name"; then
            echo "check_docs: $doc names \`$pkg.$name\`, which no non-test file of internal/$pkg declares" >&2
            fail=1
            continue
        fi
        [ -n "$member" ] || continue
        printf '%s\n' "$decls" | grep -qxF "internal/$pkg struct $name" || continue
        allowed "$doc $tok" && continue
        if ! DIR="internal/$pkg" has_member "$name" "$member"; then
            echo "check_docs: $doc names \`$tok\`, which is no field or method of internal/$pkg's $name" >&2
            fail=1
        fi
    done
done
# Bare lowerCamel identifiers and Type.name spans, against every non-test
# declaration.
for doc in README.md DESIGN.md EXPERIMENTS.md; do
    for tok in $(grep -oE '`[^`]+`' "$doc" | tr -d '`' |
        grep -E '^[a-z][a-z0-9]*[A-Z][A-Za-z0-9]*$|^[A-Z][A-Za-z0-9_]*\.[a-z][A-Za-z0-9_]*$' |
        grep -vE '^[A-Z0-9_]+\.' | sort -u); do
        allowed "$doc $tok" && continue
        case "$tok" in
        *.*) has_member "${tok%%.*}" "${tok#*.}" && continue ;;
        *) printf '%s\n' "$decls" | grep -qE "^[^ ]+ $tok\$" && continue ;;
        esac
        echo "check_docs: $doc names \`$tok\`, which no non-test Go file declares" >&2
        fail=1
    done
done
# Paths: the span's words that name a file or a top-level directory, each
# looked up from the root and from internal/ with globbing on.
tops="$(find . -mindepth 1 -maxdepth 1 -type d \( ! -name '.*' -o -name .github \) -exec basename {} \; |
    sed 's/\./\\./g' | tr '\n' '|' | sed 's/|$//')"
resolves() {
    for base in . internal; do
        for m in $base/$1; do [ -e "$m" ] && return 0; done
    done
    return 1
}
set -f
for doc in README.md DESIGN.md EXPERIMENTS.md; do
    for tok in $(grep -oE '`[^`]+`' "$doc" | tr -d '`' | tr -s ' \t' '\n\n' | grep '/' | grep -v '^/' |
        sed 's,^\./,,' | grep -E "\.(go|sh|json|md|yml)\$|^($tops)(/|\$)" | sort -u); do
        allowed "$doc $tok" && continue
        set +f
        if ! resolves "$tok"; then
            echo "check_docs: $doc names \`$tok\`, which resolves from neither the root nor internal/" >&2
            fail=1
        fi
        set -f
    done
done
set +f
exit $fail
