#!/bin/sh
# go_test_run.sh FILTER [packages...] — `go test -race -count=1 -v -run FILTER`
# that fails when FILTER, or any of its top-level |-alternatives, matches no
# test. Plain `go test -run` exits 0 with "no tests to run", so a filter left
# behind by a rename silently stops testing anything — and a stale
# alternative hides behind a live one. Every filtered test step of CI and of
# the Makefile goes through here. (Filters are flat lists of name fragments;
# an alternation nested in parentheses is not split.)
set -eu
cd "$(dirname "$0")/.."
GO=${GO:-go}
[ $# -ge 1 ] || { echo "usage: $0 FILTER [packages...]" >&2; exit 2; }
filter=$1
shift
[ $# -gt 0 ] || set -- .

names=$("$GO" test -list "$filter" "$@" | grep -E '^(Test|Example|Fuzz|Benchmark)' || true)
for alt in $(printf '%s' "$filter" | tr '|' ' '); do
    if ! printf '%s\n' "$names" | grep -Eq -e "$alt"; then
        echo "go_test_run: -run '$filter': '$alt' matches no test in $*" >&2
        exit 1
    fi
done
exec "$GO" test -race -count=1 -v -run "$filter" "$@"
