package aimes

import (
	"sort"

	"aimes/internal/core"
	"aimes/internal/trace"
)

// traceRetention is the number of most recent trace records a shard keeps.
// The largest single-environment trace in the repository (a paper-matrix
// epoch, ~115 k records on one shard) is 9x under it; at the bound a shard's
// log holds 2^20 entries of 32 bytes, about 34 MB, each record's state and
// detail stored as codes in its job's vocabularies and its entity as a code
// against the names its job holds.
const traceRetention = 1 << 20

// traceHub is the environment's trace store: one trace.Log per shard — the
// only copy of a record the environment keeps, the most recent
// traceRetention raw records of that shard's jobs, each threaded into its
// job's stream — fed by the backends' sinks. Everything that reads a trace
// (Recorder, ShardRecorder, Subscribe, Job.Events, both SSE routes) is a
// view or a cursor over these logs, built at read time.
type traceHub struct {
	logs []*trace.Log
}

// add creates the next shard's log.
func (h *traceHub) add() *trace.Log {
	l := trace.NewLog(traceRetention)
	h.logs = append(h.logs, l)
	return l
}

// view snapshots the logs of shards lo to hi-1, qualifying entities as it reads, and
// merges them by record time. Concatenated in shard order, one stable sort
// interleaves the shards' timelines and preserves each shard's internal order
// on equal timestamps — which also absorbs the one worker-backend edge where
// a completion dispatched mid-response admits a job whose later-stamped
// records land before the response's remaining earlier ones.
func (h *traceHub) view(lo, hi int) *Recorder {
	var recs []trace.Record
	for _, l := range h.logs[lo:hi] {
		recs = l.Snapshot(recs)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	return trace.RecorderOf(recs)
}

// JobStream implements core.LogSink: a job's records go to its stream in
// the shard log, which the backend looks up once per job (on a worker shard,
// once per run of one job's records in a response), not once per record.
// Nothing else happens per record: every consumer reads the log through a
// cursor of its own. It runs under the shard's engine serialization.
func (sh *shardEnv) JobStream(key int) (*trace.Log, *trace.Stream) {
	if j := sh.jobs[key]; j != nil {
		return sh.log, j.stream
	}
	return nil, nil
}

// JobTrace implements backend.Sink for a backend that does not look the
// job's stream up: it stores one raw trace record of a job in the shard log,
// threaded into the job's stream.
func (sh *shardEnv) JobTrace(key int, ns string, rec trace.Record) {
	if log, s := sh.JobStream(key); s != nil {
		log.Append(s, ns, rec)
	}
}

// JobDone implements backend.Sink: the backend finished a job (completed,
// canceled, or failed with a report) and the environment-side handle
// completes. It runs under the shard's engine serialization.
func (sh *shardEnv) JobDone(key int, report *core.Report) {
	if j := sh.jobs[key]; j != nil {
		j.complete(report, nil)
	}
}

// Recorder returns the aggregate execution trace: every job's pilot, unit
// and strategy transitions on every shard, entity-qualified by job
// namespace. It is a read-time view: each call snapshots the shard logs and
// merges them by virtual time into a fresh Recorder — always fully
// time-sorted, with equal timestamps resolving to the lowest shard index and
// then to the shard's engine order (shards keep independent virtual clocks,
// so the merge reads as one coherent timeline). A snapshot is safe to take
// while jobs run and does not change afterwards. Each shard retains its most
// recent records (about a million; ShardLoad.TraceDropped counts the ones
// evicted), so on a long-lived environment the view is the recent past, not
// all of history. Live consumers should Subscribe or range over Job.Events.
func (e *Environment) Recorder() *Recorder { return e.trace.view(0, len(e.trace.logs)) }

// ShardRecorder returns shard k's trace (that shard's jobs only), or nil
// when k is out of range: the same time-sorted snapshot of the most recent
// records as Recorder, over one shard. It works on every backend: the shard
// log is kept on the environment side of the seam, fed by the backend's
// event stream.
func (e *Environment) ShardRecorder(k int) *Recorder {
	if _, err := e.shardAt(k); err != nil {
		return nil
	}
	return e.trace.view(k, k+1)
}

// TraceSub is a cursor over the stored trace (Subscribe, Job.Subscribe): a
// position in the shard logs, not a buffer. Read copies the next batch out
// without blocking, Ready receives when there is more, C ranges over the
// records, Dropped counts exactly the records the logs' retention evicted
// before the cursor reached them, Close detaches it.
type TraceSub = trace.Cursor

// Subscribe opens a live stream of the aggregate trace: every
// entity-qualified record of every shard's jobs from now on (nothing recorded
// before is replayed), as a cursor over the shard logs, the one place records
// are stored. Recording a transition never waits for or copies to a
// subscriber; a subscriber loses records only by falling a whole retention
// window (2^20 records per shard) behind. Records from different shards
// interleave in arrival order (shards keep independent virtual clocks); they
// are the records a later Recorder snapshot holds, field for field, whether
// shards run in process or in workers. Close ends a range over C once it has
// caught up.
func (e *Environment) Subscribe() *TraceSub { return trace.Tail(e.trace.logs...) }
