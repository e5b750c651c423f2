package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aimes/internal/sim"
	"aimes/internal/trace"
)

// logSink is an execution's trace sink as a backend makes it: every record
// goes to a log that outlives the job, and the sink keeps none. It also
// carries the job's sentinel.
type logSink struct {
	log      *trace.Log
	stream   *trace.Stream // the log keeps it with every record: not part of the sink
	sentinel *[16]byte
}

func (s *logSink) Record(t sim.Time, entity, state, detail string) {
	s.log.Append(s.stream, "", trace.Record{Time: t, Entity: entity, State: state, Detail: detail})
}

// runWithSentinel executes one bag of n tasks to completion on e's manager,
// its trace going to log, and returns nothing of it. The execution's sink —
// reachable from every unit through the pilot system — holds a sentinel: a
// pointer-free block, so no cycle can keep its finalizer from running, which
// is collected exactly when the job's unit graph is.
func runWithSentinel(t *testing.T, e *env, log *trace.Log, n int, seed int64, collected *atomic.Bool) {
	t.Helper()
	rec := &logSink{log: log, stream: new(trace.Stream), sentinel: new([16]byte)}
	runtime.SetFinalizer(rec.sentinel, func(*[16]byte) { collected.Store(true) })

	w := botWorkload(t, n, seed)
	s, err := Derive(w, e.bndl, StrategyConfig{
		Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 3, Selection: SelectRandom,
	}, e.mgr.rng)
	if err != nil {
		t.Fatal(err)
	}
	if report := e.wait(t, e.enact(t, w, s, ExecOptions{Recorder: rec})); report.UnitsDone != n {
		t.Fatalf("job of %d tasks finished %d", n, report.UnitsDone)
	}
}

// TestFinishedJobIsCollectable runs jobs back to back on one manager — one
// long-lived engine, testbed and set of WAN links, as on an environment
// shard — and requires that job k's unit graph is garbage once job k+1 has
// completed. The links, the engine and the log outlive every job, and a job's
// units are one slab with their transfers and events inside it: one stale
// pointer into it — a transfer left in a link's queue, an event in a vacated
// slot of the engine's — pins every unit of that job. The log keeps every
// record all along; a record holds strings, not units.
func TestFinishedJobIsCollectable(t *testing.T) {
	e := newEnv(t, 11)
	log := trace.NewLog(1 << 20)
	sizes := []int{256, 2048, 16, 128, 8, 64, 32}
	collected := make([]atomic.Bool, len(sizes))
	records := 0
	for k, n := range sizes {
		runWithSentinel(t, e, log, n, int64(k+1), &collected[k])
		records += 7 * n // a unit that runs straight through makes seven transitions
		if k == 0 {
			continue
		}
		deadline := time.Now().Add(5 * time.Second)
		for !collected[k-1].Load() && time.Now().Before(deadline) {
			runtime.GC()
			time.Sleep(time.Millisecond) // finalizers run on their own goroutine
		}
		if !collected[k-1].Load() {
			t.Fatalf("job %d (%d tasks) is still reachable after job %d completed", k-1, sizes[k-1], k)
		}
	}
	if kept := len(log.Snapshot(nil)); kept < records || log.Dropped() != 0 {
		t.Fatalf("the log holds %d records and dropped %d; the jobs' units alone wrote %d", kept, log.Dropped(), records)
	}
}
