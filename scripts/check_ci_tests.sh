#!/bin/sh
# Fails when a workflow names a test that does not exist. `go test -run` and
# `-fuzz` match a regexp, so a name left behind by a deleted or renamed test
# silently selects nothing and the smoke job that lists it keeps passing
# while checking less. Every Test…/Fuzz…/Benchmark… token in
# .github/workflows/*.yml must be a prefix of a test function in the tree
# (a prefix, because -run alternations such as 'TestChaos' are unanchored).
set -eu
cd "$(dirname "$0")/.."

funcs="$(grep -rhoE --include='*_test.go' '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' . | sed 's/^func //' | sort -u)"
fail=0
for tok in $(grep -hoE '(Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*' .github/workflows/*.yml | sort -u); do
    if ! printf '%s\n' "$funcs" | grep -q "^$tok"; then
        echo "check_ci_tests: $tok (in .github/workflows) matches no test function in the tree" >&2
        fail=1
    fi
done
exit $fail
