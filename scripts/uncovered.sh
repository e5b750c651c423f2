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
# It lists every internal/ function the whole module's tests reach and the
# consumers' tests do not: code kept alive by its own package's tests (or a
# sibling library's). Such a function is reached from the product by a
# consumer test, deleted, or named in scripts/orphans.allow as
# "<file> <Recv.Func|Func> <reason>" (the receiver read off the declaration
# line the profile names). The run fails on an orphan the allowlist does not
# name, on an allowlist entry naming a function that is not an orphan (so the
# list cannot go stale) and on an entry without a reason.
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
    fail=0
    # decls: "<file>:<line> <key>" for every function declared in internal/,
    # the key being Recv.Func for a method and Func for a function, read off
    # the declaration line the profile names.
    grep -rn --include='*.go' --exclude='*_test.go' '^func ' internal | awk '{
        split($0, f, ":"); file = f[1]; line = f[2]
        text = substr($0, length(file) + length(line) + 3)
        recv = ""
        if (match(text, /^func \([^)]*\) /)) {
            recv = substr(text, 7, RLENGTH - 8)
            sub(/^.* /, "", recv); sub(/^\*/, "", recv); sub(/\[.*/, "", recv)
            name = substr(text, RLENGTH + 1)
        } else {
            name = substr(text, 6)
        }
        sub(/[[(].*/, "", name)
        print file ":" line, (recv == "" ? name : recv "." name)
    }' >"$tmp/decls"
    # An allowlist key Recv.Func names that method; a bare Func names every
    # function and method of that name in the file, and then each of them
    # must be an orphan. A line fails without a reason, when it names no
    # function, or when a function it names is no longer an orphan (so the
    # list cannot go stale); an orphan no line names fails too.
    awk '
    FILENAME == ARGV[1] {
        if ($0 ~ /^[[:space:]]*(#|$)/) next
        n++; afile[n] = $1; akey[n] = $2; aline[n] = FNR
        if (NF < 3) { print "orphans.allow:" FNR ": no reason given: " $0 >"/dev/stderr"; bad = 1 }
        next
    }
    FILENAME == ARGV[2] {
        loc = $1; file = loc; sub(/:[0-9]+$/, "", file)
        key[loc] = $2; bare = $2; sub(/^.*\./, "", bare)
        for (i = 1; i <= n; i++)
            if (afile[i] == file && (akey[i] == $2 || (akey[i] !~ /\./ && akey[i] == bare))) {
                m[i]++; names[i, m[i]] = loc; by[loc] = 1
            }
        next
    }
    {
        loc = $1; sub(/:$/, "", loc); orphan[loc] = 1
        k = (loc in key) ? key[loc] : $2
        printf "%s %s %s\n", ((loc in by) ? " " : "!"), loc, k
        if (!(loc in by)) unallowed = unallowed "\n" loc " " k
    }
    END {
        if (unallowed != "") {
            print "orphans: reached by library tests only (marked ! above) — reach them from a consumer test, delete them, or allow them with a reason in scripts/orphans.allow:" unallowed >"/dev/stderr"
            bad = 1
        }
        for (i = 1; i <= n; i++) {
            if (!m[i]) {
                print "orphans.allow:" aline[i] ": names no function: " afile[i] " " akey[i] >"/dev/stderr"
                bad = 1
            }
            for (j = 1; j <= m[i]; j++)
                if (!(names[i, j] in orphan)) {
                    print "orphans.allow:" aline[i] ": names " names[i, j] " " key[names[i, j]] ", which is not an orphan (any more) — remove or narrow the line" >"/dev/stderr"
                    bad = 1
                }
        }
        exit bad
    }' scripts/orphans.allow "$tmp/decls" "$tmp/orphans" || fail=1
    [ "$fail" -eq 0 ] || exit 1
    echo "orphans: $(wc -l <"$tmp/orphans") internal/ functions reached by library tests only, each allowed by scripts/orphans.allow"
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
