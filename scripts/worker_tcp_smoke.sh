#!/bin/sh
# worker_tcp_smoke.sh — end-to-end smoke of the TCP worker transport: build
# the standalone worker, host shards with `aimes-worker serve` on a loopback
# port, and run the race-enabled backend parity matrix against the live host
# ($AIMES_TEST_WORKER_ADDR routes the tcp/* parity subtests at it instead of
# the tests' in-process listener). Proves the shipped binary, the handshake,
# and both codecs agree with local shards over a real socket.
set -eu
cd "$(dirname "$0")/.."
GO=${GO:-go}

secret=$(od -An -N16 -tx1 /dev/urandom | tr -d ' \n')
log=$(mktemp)
"$GO" build -o /tmp/aimes-worker ./cmd/aimes-worker

AIMES_WORKER_SECRET="$secret" /tmp/aimes-worker serve --listen 127.0.0.1:0 2>"$log" &
host_pid=$!
cleanup() {
    kill "$host_pid" 2>/dev/null || true
    rm -f "$log"
}
trap cleanup EXIT

# The host logs "listening on 127.0.0.1:PORT" once the port-0 bind resolves.
addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/.*listening on //p' "$log" | head -n 1)
    [ -n "$addr" ] && break
    kill -0 "$host_pid" 2>/dev/null || { echo "worker host died:"; cat "$log"; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$addr" ] || { echo "worker host never reported its address:"; cat "$log"; exit 1; }
echo "worker host at $addr"

AIMES_TEST_WORKER_ADDR="$addr" AIMES_TEST_WORKER_SECRET="$secret" \
    ./scripts/go_test_run.sh 'TestBackendParity|TestTCPWorkerCrash' .
