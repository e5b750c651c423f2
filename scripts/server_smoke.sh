#!/bin/sh
# server_smoke.sh — end-to-end smoke of the aimes-server service daemon, on
# both the local and TCP-worker backends: build the shipped binaries, start
# the daemon on an ephemeral port with two quota-limited tenants, and drive
# the HTTP surface with curl — admission vs 429 quota rejection, tenant
# isolation, SSE event streaming, reconnect-and-wait by job ID, a submit
# answered with its job's event stream, Prometheus counters, the -pprof heap profile (local leg), and a graceful SIGTERM
# drain.
set -eu
cd "$(dirname "$0")/.."
GO=${GO:-go}

work=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$work"
}
trap cleanup EXIT

fail() {
    echo "server_smoke: FAIL: $*" >&2
    for f in "$work"/*.err; do
        [ -f "$f" ] || continue
        echo "--- $f" >&2
        cat "$f" >&2
    done
    exit 1
}

"$GO" build -o "$work/aimes-server" ./cmd/aimes-server
"$GO" build -o "$work/aimes-worker" ./cmd/aimes-worker

# Two tenants, each limited to one job in flight.
cat >"$work/tokens.txt" <<'EOF'
# tenant   token             max_inflight
alice      alice-smoke-token 1
bob        bob-smoke-token   1
EOF

# A big pinned-shape workload (keeps alice's first job in flight while her
# second submission arrives: see run_leg) and a small one, both in the
# middleware interchange format wrapped in a submit request.
gen_submit() { # gen_submit NAME TASKS > file
    awk -v name="$1" -v n="$2" 'BEGIN {
        printf "{\"workload\":{\"name\":\"%s\",\"stages\":[\"s\"],\"tasks\":[", name
        for (i = 0; i < n; i++)
            printf "%s{\"id\":\"t%d\",\"stage\":\"s\",\"index\":%d,\"cores\":1,\"duration_s\":60}", (i ? "," : ""), i, i
        printf "]},\"config\":{\"Binding\":1,\"Scheduler\":1,\"Pilots\":2}}"
    }'
}
gen_submit big 16384 >"$work/big.json"
gen_submit small 64 >"$work/small.json"

json_field() { # json_field FIELD < response: the first "field":"value"
    grep -o "\"$1\": *\"[^\"]*\"" | head -n 1 | sed 's/.*: *"\(.*\)"/\1/'
}

run_leg() { # run_leg LABEL [extra aimes-server flags...]
    label=$1; shift
    out="$work/$label.out" err="$work/$label.err"
    "$work/aimes-server" -listen 127.0.0.1:0 -token-file "$work/tokens.txt" "$@" \
        >"$out" 2>"$err" &
    srv=$!
    pids="$pids $srv"

    # The daemon prints "listening on http://ADDR" to stdout after binding.
    base=""
    i=0
    while [ $i -lt 100 ]; do
        base=$(sed -n 's#.*listening on \(http://[^ ]*\)#\1#p' "$out" | head -n 1)
        [ -n "$base" ] && break
        kill -0 "$srv" 2>/dev/null || fail "$label: daemon died at startup"
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$base" ] || fail "$label: daemon never reported its address"
    echo "[$label] daemon at $base"

    alice="Authorization: Bearer alice-smoke-token"
    bob="Authorization: Bearer bob-smoke-token"

    # No token: 401 before anything else happens.
    code=$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/jobs")
    [ "$code" = 401 ] || fail "$label: unauthenticated list got $code, want 401"

    # Alice fills her quota with the big job, so her second submission is a
    # 429 quota rejection. Both go out from one curl process on one
    # connection, the second the moment the first is answered: the big job is
    # in flight for tens of milliseconds, less than a second process may take
    # to start.
    code=$(curl -s -H "$alice" -X POST --data-binary @"$work/big.json" -o "$work/a1.json" "$base/v1/jobs" \
        --next -s -H "$alice" -X POST --data-binary @"$work/small.json" -o "$work/reject.json" \
        -w '%{http_code}' "$base/v1/jobs")
    id_a=$(json_field id <"$work/a1.json")
    [ -n "$id_a" ] || fail "$label: no job id in submit response: $(cat "$work/a1.json")"
    [ "$code" = 429 ] || fail "$label: alice's 2nd submit got $code, want 429: $(cat "$work/reject.json")"
    grep -q 'quota' "$work/reject.json" || fail "$label: 429 body does not mention quota"

    # ...while bob's tenancy is unaffected.
    code=$(curl -s -o "$work/b1.json" -w '%{http_code}' \
        -H "$bob" -X POST --data-binary @"$work/small.json" "$base/v1/jobs")
    [ "$code" = 201 ] || fail "$label: bob's submit got $code, want 201: $(cat "$work/b1.json")"
    id_b=$(json_field id <"$work/b1.json")
    echo "[$label] alice in flight ($id_a), alice quota-rejected with 429, bob admitted ($id_b)"

    # Stream alice's job events over SSE for a moment (curl exits 28 when
    # --max-time cuts a still-live stream; that is expected).
    curl -sN --max-time 5 -H "$alice" "$base/v1/jobs/$id_a/events" >"$work/sse.txt" || true
    grep -q '^event: ' "$work/sse.txt" || fail "$label: no SSE events streamed"
    grep -q '^id: ' "$work/sse.txt" || fail "$label: SSE events carry no sequence ids"
    echo "[$label] SSE stream delivered $(grep -c '^event: ' "$work/sse.txt") events"

    # Reconnect-and-wait: a fresh connection long-polls the job by ID until
    # it is final and finds the report in the snapshot.
    i=0
    while :; do
        curl -s -H "$alice" "$base/v1/jobs/$id_a?wait=15s" >"$work/a1-final.json"
        grep -q '"final": *true' "$work/a1-final.json" && break
        i=$((i + 1))
        [ $i -lt 20 ] || fail "$label: job $id_a never became final"
    done
    grep -q '"report"' "$work/a1-final.json" || fail "$label: final snapshot has no report"
    grep -q '"state": *"done"' "$work/a1-final.json" || fail "$label: final state: $(json_field state <"$work/a1-final.json")"
    curl -s -H "$bob" "$base/v1/jobs/$id_b?wait=30s" >"$work/b1-final.json"
    grep -q '"final": *true' "$work/b1-final.json" || fail "$label: bob's job never became final"
    echo "[$label] reconnect-and-wait collected both final reports"

    # The admission story must be visible on /metrics.
    curl -s "$base/metrics" >"$work/metrics.txt"
    grep -q 'aimes_jobs_submitted_total{tenant="alice"} 1' "$work/metrics.txt" ||
        fail "$label: metrics missing alice's submission"
    grep -q 'aimes_jobs_rejected_total{tenant="alice"} 1' "$work/metrics.txt" ||
        fail "$label: metrics missing alice's quota rejection"
    grep -q 'aimes_jobs_completed_total{tenant="bob"} 1' "$work/metrics.txt" ||
        fail "$label: metrics missing bob's completion"

    # A submit that accepts text/event-stream is answered with the job's SSE
    # stream: the submitted snapshot, the job's events with their sequence
    # ids, then done.
    curl -sN --max-time 30 -H "$bob" -H 'Accept: text/event-stream' -X POST \
        --data-binary @"$work/small.json" "$base/v1/jobs" >"$work/submit-sse.txt" ||
        fail "$label: streamed submit: curl exited $?"
    first=$(grep '^event: ' "$work/submit-sse.txt" | head -n 1)
    last=$(grep '^event: ' "$work/submit-sse.txt" | tail -n 1)
    [ "$first" = "event: submitted" ] || fail "$label: streamed submit opens with '$first', want 'event: submitted'"
    [ "$last" = "event: done" ] || fail "$label: streamed submit ends with '$last', want 'event: done'"
    grep -q '^id: ' "$work/submit-sse.txt" || fail "$label: streamed submit's events carry no sequence ids"
    echo "[$label] streamed submit: submitted, $(grep -c '^event: job' "$work/submit-sse.txt") job events, done"

    # Profiles on demand: -pprof serves net/http/pprof on a listener of its
    # own, never on the API's.
    pprof=$(sed -n 's#.*pprof on \(http://[^/]*\)/.*#\1#p' "$out" | head -n 1)
    if [ -n "$pprof" ]; then
        curl -s "$pprof/debug/pprof/heap?debug=1" >"$work/heap.txt"
        grep -q '^heap profile:' "$work/heap.txt" || fail "$label: no heap profile from $pprof"
        code=$(curl -s -o /dev/null -w '%{http_code}' -H "$alice" "$base/debug/pprof/heap?debug=1")
        [ "$code" != 200 ] || fail "$label: the API listener serves /debug/pprof"
        echo "[$label] heap profile from $pprof; the API listener answers $code"
    fi

    # Graceful shutdown: SIGTERM drains and exits 0.
    kill -TERM "$srv"
    if ! wait "$srv"; then
        fail "$label: daemon exited nonzero on SIGTERM"
    fi
    grep -q 'drain complete' "$err" || fail "$label: no 'drain complete' in daemon log"
    echo "[$label] SIGTERM drain complete"
}

run_leg local -shards 2 -pprof 127.0.0.1:0

# TCP-worker leg: host the shards in a real `aimes-worker serve` process,
# authenticated via --secret-file on both sides.
od -An -N16 -tx1 /dev/urandom | tr -d ' \n' >"$work/secret.txt"
"$work/aimes-worker" serve --listen 127.0.0.1:0 --secret-file "$work/secret.txt" \
    2>"$work/workerhost.err" &
host=$!
pids="$pids $host"
addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/.*listening on //p' "$work/workerhost.err" | head -n 1)
    [ -n "$addr" ] && break
    kill -0 "$host" 2>/dev/null || fail "worker host died at startup"
    sleep 0.1
    i=$((i + 1))
done
[ -n "$addr" ] || fail "worker host never reported its address"
echo "[tcp] worker host at $addr"

run_leg tcp -shards 2 -worker-endpoints "$addr" -worker-secret-file "$work/secret.txt"

echo "server_smoke: OK"
