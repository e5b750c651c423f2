#!/bin/sh
# uncovered.sh [coverprofile] — product functions no test reaches.
# uncovered.sh orphans        — internal/ functions only library tests reach.
#
# One `go test -count=1 -coverpkg=./... -coverprofile` run over the whole
# module (or the given profile, to re-read one), then every function at 0 %
# outside cmd/, examples/ and bench/ is printed: code only a main package can
# reach, or nothing can. It fails when one of them is surface somebody else
# calls — an exported function or method of an exported type in package aimes
# or client, or a handle* route of internal/server — so a public name is
# either exercised by a test or deleted, and the list a shrink PR starts from
# does not have to be compiled by hand.
#
# `orphans` is the same run plus one restricted to the packages that consume
# the libraries — root, client, cmd/..., internal/server, internal/scenario,
# internal/experiments — both still counting every package (-coverpkg=./...).
# It prints every internal/ function the whole module's tests reach and the
# consumers' tests do not: code kept alive by its own package's tests (or a
# sibling library's), the candidates for the next shrink. Informational: what
# only an untested main calls (cmd/skeleton-gen's writers) is on the list too,
# and so is a library's own contract (a policy's Name, a String method).
set -eu
cd "$(dirname "$0")/.."
GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# cover PROFILE PACKAGES... writes a whole-module coverage profile of the
# given packages' tests.
cover() {
    out=$1
    shift
    if ! "$GO" test -count=1 -coverpkg=./... -coverprofile="$out" "$@" >"$tmp/test.log" 2>&1; then
        cat "$tmp/test.log"
        exit 1
    fi
}

profile=${1:-}
module=$("$GO" list -m)

if [ "$profile" = orphans ]; then
    cover "$tmp/all.out" ./...
    cover "$tmp/consumers.out" . ./client ./cmd/... ./internal/server ./internal/scenario ./internal/experiments
    "$GO" tool cover -func="$tmp/all.out" | awk '$NF != "0.0%" { print $1, $2 }' | sort -u >"$tmp/reached"
    "$GO" tool cover -func="$tmp/consumers.out" | awk '$NF == "0.0%" { print $1, $2 }' | sort -u >"$tmp/unconsumed"
    comm -12 "$tmp/reached" "$tmp/unconsumed" | sed "s|^$module/||" | grep '^internal/' >"$tmp/orphans" || true
    cat "$tmp/orphans"
    echo "orphans: $(wc -l <"$tmp/orphans") internal/ functions are reached by library tests only"
    exit 0
fi

if [ -z "$profile" ]; then
    profile=$tmp/cover.out
    cover "$profile" ./...
fi

"$GO" tool cover -func="$profile" | awk '$NF == "0.0%" { print $1, $2 }' | sort -u >"$tmp/zero"
: >"$tmp/public"
while read -r loc fn; do
    path=${loc#"$module"/}
    path=${path%%:*}
    line=${loc#*:}
    line=${line%%:*}
    case $path in cmd/* | examples/* | bench/*) continue ;; esac
    mark=' '
    case $(dirname "$path") in
    . | client)
        # Exported only if the name and, for a method, the receiver's type
        # are: the declaration is on the line the profile names.
        if sed -n "${line}p" "$path" |
            grep -Eq '^func (\(([A-Za-z_][A-Za-z0-9_]* )?\*?[A-Z][A-Za-z0-9_]*\) )?[A-Z]'; then
            mark='!'
        fi
        ;;
    internal/server)
        case $fn in handle*) mark='!' ;; esac
        ;;
    esac
    printf '%s %s:%s %s\n' "$mark" "$path" "$line" "$fn"
    [ "$mark" = ' ' ] || echo "$path:$line $fn" >>"$tmp/public"
done <"$tmp/zero"

if [ -s "$tmp/public" ]; then
    echo "uncovered: public surface no test reaches (marked ! above) — test it or delete it:" >&2
    cat "$tmp/public" >&2
    exit 1
fi
echo "uncovered: every exported name of aimes and client and every server route is reached by a test"
