#!/bin/sh
# fleet_smoke.sh — end-to-end smoke of the worker-fleet lifecycle: two real
# `aimes-worker serve` hosts behind one aimes-server, a kill -9 of a host
# mid-run, and the recovery contract checked from the outside — queued jobs
# replay to completion on a respawned worker placed on the surviving host,
# already-enacted jobs fail, the restart shows up in /metrics, and the
# severed shard keeps serving new submissions from its new home.
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
    echo "fleet_smoke: FAIL: $*" >&2
    for f in "$work"/*.err; do
        [ -f "$f" ] || continue
        echo "--- $f" >&2
        cat "$f" >&2
    done
    exit 1
}

"$GO" build -o "$work/aimes-server" ./cmd/aimes-server
"$GO" build -o "$work/aimes-worker" ./cmd/aimes-worker

od -An -N16 -tx1 /dev/urandom | tr -d ' \n' >"$work/secret.txt"

start_host() { # start_host LABEL — sets addr_LABEL and pid_LABEL
    "$work/aimes-worker" serve --listen 127.0.0.1:0 --secret-file "$work/secret.txt" \
        2>"$work/host-$1.err" &
    hpid=$!
    pids="$pids $hpid"
    addr=""
    i=0
    while [ $i -lt 100 ]; do
        addr=$(sed -n 's/.*listening on //p' "$work/host-$1.err" | head -n 1)
        [ -n "$addr" ] && break
        kill -0 "$hpid" 2>/dev/null || fail "worker host $1 died at startup"
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$addr" ] || fail "worker host $1 never reported its address"
    eval "pid_$1=\$hpid"
    eval "addr_$1=\$addr"
}

start_host a
start_host b
echo "[fleet] worker hosts at $addr_a (a) and $addr_b (b)"

echo "smoke fleet-smoke-token" >"$work/tokens.txt"

# Two shards over two hosts: shard 0 homes on host a, shard 1 on host b.
# Work stealing is on so submissions past the admission window queue as
# descriptors — the replayable population — and a restart budget plus a
# fast liveness probe arm the respawn path.
"$work/aimes-server" -listen 127.0.0.1:0 -token-file "$work/tokens.txt" \
    -shards 2 -steal \
    -worker-endpoints "$addr_a,$addr_b" -worker-secret-file "$work/secret.txt" \
    -max-restarts 2 -health-interval 100ms \
    >"$work/server.out" 2>"$work/server.err" &
srv=$!
pids="$pids $srv"
base=""
i=0
while [ $i -lt 100 ]; do
    base=$(sed -n 's#.*listening on \(http://[^ ]*\)#\1#p' "$work/server.out" | head -n 1)
    [ -n "$base" ] && break
    kill -0 "$srv" 2>/dev/null || fail "daemon died at startup"
    sleep 0.1
    i=$((i + 1))
done
[ -n "$base" ] || fail "daemon never reported its address"
echo "[fleet] daemon at $base"

auth="Authorization: Bearer fleet-smoke-token"

gen_submit() { # gen_submit NAME TASKS SHARD MIGRATE > file
    awk -v name="$1" -v n="$2" -v shard="$3" -v migrate="$4" 'BEGIN {
        printf "{\"workload\":{\"name\":\"%s\",\"stages\":[\"s\"],\"tasks\":[", name
        for (i = 0; i < n; i++)
            printf "%s{\"id\":\"t%d\",\"stage\":\"s\",\"index\":%d,\"cores\":1,\"duration_s\":60}", (i ? "," : ""), i, i
        printf "]},\"config\":{\"Binding\":1,\"Scheduler\":1,\"Pilots\":2},"
        printf "\"placement\":\"pinned\",\"shard\":%d,\"migrate\":\"%s\"}", shard, migrate
    }'
}

json_field() { # json_field FIELD < response: the first "field":"value"
    grep -o "\"$1\": *\"[^\"]*\"" | head -n 1 | sed 's/.*: *"\(.*\)"/\1/'
}

submit() { # submit NAME TASKS SHARD MIGRATE -> job id on stdout
    gen_submit "$1" "$2" "$3" "$4" >"$work/$1.json"
    code=$(curl -s -o "$work/$1.resp" -w '%{http_code}' \
        -H "$auth" -X POST --data-binary @"$work/$1.json" "$base/v1/jobs")
    [ "$code" = 201 ] || fail "submit $1 got $code: $(cat "$work/$1.resp")"
    id=$(json_field id <"$work/$1.resp")
    [ -n "$id" ] || fail "no job id in submit response for $1"
    echo "$id"
}

wait_final() { # wait_final ID LABEL -> writes $work/final-LABEL.json
    i=0
    while :; do
        curl -s -H "$auth" "$base/v1/jobs/$1?wait=15s" >"$work/final-$2.json"
        grep -q '"final": *true' "$work/final-$2.json" && return 0
        i=$((i + 1))
        [ $i -lt 20 ] || fail "job $1 ($2) never became final"
    done
}

# Six identical jobs pinned to shard 0: the first four to reach the shard
# fill its sealed admission window (enacted — their engine state will die
# with host a), the last two queue behind them as replayable descriptors.
# The engine runs in virtual time, so an enacted job would be over in
# milliseconds, long before the kill. Host a is therefore frozen (SIGSTOP)
# while the six submissions arrive and park in front of it; once it resumes
# they are admitted back to back — a pump gets at most a few event batches
# between two of them — and the kill lands the moment the last submission
# returns, with every enacted job a small fraction of the way through.
bystander=$(submit bystander 48 1 never)
kill -STOP "$pid_a"
curls=""
for n in 1 2 3 4 5 6; do
    gen_submit "job$n" 16384 0 never >"$work/job$n.json"
    curl -s -o "$work/job$n.resp" -H "$auth" -X POST --data-binary @"$work/job$n.json" "$base/v1/jobs" &
    curls="$curls $!"
done
sleep 5 # all six requests decoded and parked
kill -CONT "$pid_a"
for p in $curls; do wait "$p" || fail "a submission to shard 0 failed"; done

# The chaos event: host a goes away without a goodbye.
kill -9 "$pid_a"
echo "[fleet] killed worker host a (kill -9) with 4 enacted + 2 queued jobs on shard 0"

# The enacted jobs fail — their pilots lived in the dead worker — and the
# queued, never-enacted ones replay on the respawned shard 0, now
# necessarily hosted on b, and complete.
failed=0
done_=0
for n in 1 2 3 4 5 6; do
    id=$(json_field id <"$work/job$n.resp")
    [ -n "$id" ] || fail "no job id in submit response for job$n: $(cat "$work/job$n.resp")"
    wait_final "$id" "job$n"
    case $(json_field state <"$work/final-job$n.json") in
    failed) failed=$((failed + 1)) ;;
    done) done_=$((done_ + 1)) ;;
    esac
done
[ "$failed" -eq 4 ] && [ "$done_" -eq 2 ] ||
    fail "shard 0's six jobs ended $failed failed / $done_ done (want 4 enacted failed, 2 queued replayed to done)"
echo "[fleet] 4 enacted jobs failed as contracted, 2 queued jobs replayed to completion"

# The bystander shard never noticed.
wait_final "$bystander" bystander
grep -q '"state": *"done"' "$work/final-bystander.json" || fail "bystander state: $(json_field state <"$work/final-bystander.json")"

# The lifecycle is visible on /metrics: at least one respawn, both replays,
# and host a marked unhealthy.
curl -s "$base/metrics" >"$work/metrics.txt"
restarts=$(sed -n 's/^aimes_worker_restarts_total \([0-9]*\)$/\1/p' "$work/metrics.txt")
[ -n "$restarts" ] || fail "no aimes_worker_restarts_total in /metrics"
[ "$restarts" -ge 1 ] || fail "aimes_worker_restarts_total $restarts, want >= 1"
replayed=$(sed -n 's/^aimes_jobs_replayed_total \([0-9]*\)$/\1/p' "$work/metrics.txt")
[ "$replayed" -ge 2 ] || fail "aimes_jobs_replayed_total $replayed, want >= 2"
grep -q "aimes_endpoint_unhealthy{endpoint=\"$addr_a\"} 1" "$work/metrics.txt" ||
    fail "dead host $addr_a not reported unhealthy in /metrics"
echo "[fleet] /metrics: restarts=$restarts replayed=$replayed, host a unhealthy"

# The respawned shard keeps serving: a fresh pinned submission completes on
# shard 0's new home.
fresh=$(submit fresh 48 0 never)
wait_final "$fresh" fresh
grep -q '"state": *"done"' "$work/final-fresh.json" || fail "post-respawn submission state: $(json_field state <"$work/final-fresh.json")"
echo "[fleet] post-respawn submission to the severed shard completed"

kill -TERM "$srv"
if ! wait "$srv"; then
    fail "daemon exited nonzero on SIGTERM"
fi
grep -q 'drain complete' "$work/server.err" || fail "no 'drain complete' in daemon log"

echo "fleet_smoke: OK"
