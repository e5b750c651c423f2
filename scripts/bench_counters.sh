#!/bin/sh
# bench_counters.sh — the CI counter gate: this tree against its parent commit
# on the counters a shared runner cannot move.
#
# Checks the parent (default HEAD^, or $1) out into a temporary worktree, runs
# the repository's benchmark once per workload on the held-out seed (7741) on
# both sides, prints `go run ./bench -compare parent change`, and fails when a
# runner-independent row is not "same": allocs_per_job, alloc_kb_per_job,
# retained_kb_per_job and done_share on every workload, sim_ttc_mean_s on the
# three whose simulated results are pinned (tenants-burst steals work between
# shards by host timing). Time-based rows are printed, never gated. A commit in
# parent..HEAD carrying the trailer "Bench-Counters: moved" skips the gate: a
# change that moves a counter on purpose says so there, and in CHANGES.md.
#
# Both sides' records are left in bench/out/ (git-ignored) for upload.
set -eu
cd "$(dirname "$0")/.."
GO=${GO:-go}
parent=${1:-HEAD^}

if git log --format=%B "$parent..HEAD" | grep -qi '^Bench-Counters: *moved'; then
    echo "Bench-Counters: moved — counter gate skipped"
    exit 0
fi

tree=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tree" 2>/dev/null || true
    rm -rf "$tree"
}
trap cleanup EXIT
git worktree add --detach "$tree" "$parent" >/dev/null

here=$(pwd)
mkdir -p bench/out
rm -f bench/out/parent.jsonl bench/out/change.jsonl
for w in paper-matrix tenants-burst fleet-mixed service-stream; do
    echo "--- $w"
    # A run exits non-zero when a job fails verification; its table is in
    # the record, so only that is kept.
    (cd "$tree" && "$GO" run ./bench -workload "$w" -seed 7741 -out "$here/bench/out/parent.jsonl") >/dev/null
    "$GO" run ./bench -workload "$w" -seed 7741 -out bench/out/change.jsonl >/dev/null
done

# -compare exits 1 when any row, time-based ones included, is not "same".
rc=0
table=$("$GO" run ./bench -compare bench/out/parent.jsonl bench/out/change.jsonl) || rc=$?
echo "$table"
[ "$rc" -le 1 ] || exit "$rc"

moved=$(echo "$table" | awk '
    $NF == "same" { next }
    $2 ~ /^(allocs_per_job|alloc_kb_per_job|retained_kb_per_job|done_share)$/ { print }
    $2 == "sim_ttc_mean_s" && $1 != "tenants-burst" { print }')
if [ -n "$moved" ]; then
    echo "counter gate: runner-independent rows moved against $parent:"
    echo "$moved"
    exit 1
fi
echo "counter gate: every runner-independent row is the same as at $parent"
