#!/bin/sh
# scenario_matrix.sh — run the whole scenario corpus as a CI gate: every
# example scenario executes with `run -assert` on both the local and the
# worker backend (fleet scenarios route to the worker backend either way),
# so each scenario's declarative assertions must hold on each backend; each
# fleet scenario also runs twice and must print the same report. The
# deliberately failing fixture is held out of the green matrix and run last
# to prove that an assertion failure exits nonzero and names its index.
set -eu
cd "$(dirname "$0")/.."
GO=${GO:-go}

bin=/tmp/aimes-scenario
"$GO" build -o "$bin" ./cmd/aimes-scenario

fail=0
for f in examples/scenarios/*.json; do
    case "$f" in */failing-fixture.json) continue;; esac
    for backend in local worker; do
        echo "--- $f ($backend)"
        # A worker killing its own transport mid-scenario logs a write error
        # on its way out; keep stderr but don't let it interleave with the
        # matrix progress lines.
        if ! timeout 120 "$bin" run -assert -backend "$backend" "$f"; then
            echo "*** FAILED: $f on $backend backend"
            fail=1
        fi
    done
done

# A worker's death reads one verdict, whichever reporter sees it first, so a
# fleet scenario's whole report, its failed jobs' errors included, repeats
# byte for byte on one binary.
runs=$(mktemp -d)
trap 'rm -rf "$runs"' EXIT
for f in examples/scenarios/fleet-*.json; do
    echo "--- $f (worker, twice, -v)"
    for k in 1 2; do
        timeout 120 "$bin" run -v -backend worker "$f" >"$runs/$k.out" 2>/dev/null || {
            echo "*** FAILED: $f run $k"
            fail=1
        }
    done
    if ! cmp -s "$runs/1.out" "$runs/2.out"; then
        echo "*** NOT REPEATABLE: $f"
        diff "$runs/1.out" "$runs/2.out" || true
        fail=1
    fi
done
[ "$fail" -eq 0 ] || { echo "scenario matrix: failures above"; exit 1; }

echo "--- examples/scenarios/failing-fixture.json (must fail)"
out=$(timeout 120 "$bin" run -assert examples/scenarios/failing-fixture.json 2>&1) && {
    echo "failing fixture unexpectedly passed:"
    echo "$out"
    exit 1
}
echo "$out"
case "$out" in
*"assertion 1"*) ;;
*)
    echo "failing fixture's error does not name the assertion index:"
    echo "$out"
    exit 1
    ;;
esac
echo "scenario matrix: all green, failing fixture failed as designed"
