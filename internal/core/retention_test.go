package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aimes/internal/trace"
)

// logSink is an execution's sink as a backend makes it: every record goes
// to a log that outlives the job, and the sink keeps none; the report goes to
// whoever ran the job. It also carries the job's sentinel.
type logSink struct {
	log      *trace.Log
	stream   *trace.Stream // the log keeps it with every record: not part of the sink
	sentinel *[16]byte
}

func (s *logSink) JobTrace(_ int, _ string, r trace.Record) { s.log.Append(s.stream, "", r) }

func (s *logSink) JobDone(int, *Report) {}

// runWithSentinel executes one bag of n tasks to completion on e's manager,
// its trace going to log, and returns its report and nothing else of it. The
// execution's sink — reachable from every unit through the pilot system —
// holds a sentinel: a pointer-free block, so no cycle can keep its finalizer
// from running, which is collected exactly when the job's engine state is.
func runWithSentinel(t *testing.T, e *env, log *trace.Log, n int, seed int64, collected *atomic.Bool) *Report {
	t.Helper()
	sink := &logSink{log: log, stream: new(trace.Stream), sentinel: new([16]byte)}
	runtime.SetFinalizer(sink.sentinel, func(*[16]byte) { collected.Store(true) })

	w := botWorkload(t, n, seed)
	s, err := Derive(w, e.bndl, dispatch, StrategyConfig{
		Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 3, Selection: SelectRandom,
	}, e.mgr.rng)
	if err != nil {
		t.Fatal(err)
	}
	report := e.wait(t, e.enact(t, pinned(w, s), ExecOptions{Sink: sink}))
	if report.UnitsDone != n {
		t.Fatalf("job of %d tasks finished %d", n, report.UnitsDone)
	}
	return report
}

// TestFinishedJobIsCollectable runs jobs back to back on one manager — one
// long-lived engine, testbed and set of WAN links, as on an environment
// shard — and requires that job k's engine state is garbage once job k+1 has
// completed, while every job's report is kept, as a daemon's registry keeps
// them. The links, the engine, the sites' queues, the log and the reports
// outlive every job, and a job's engine state is a few slabs — the
// execution with its pilot system and managers, the pilots with their SAGA
// jobs and events, the units with their transfers — that point at each
// other: one stale pointer into any — a transfer left in a link's queue, an
// event in a vacated slot of the engine's, a pilot's batch job on a queue, a
// report holding a pilot — pins them all. The log keeps every record all
// along; a record holds strings, not units.
func TestFinishedJobIsCollectable(t *testing.T) {
	e := newEnv(t, 11)
	log := trace.NewLog(1 << 20)
	sizes := []int{256, 2048, 16, 128, 8, 64, 32}
	collected := make([]atomic.Bool, len(sizes))
	reports := make([]*Report, len(sizes))
	records := 0
	for k, n := range sizes {
		reports[k] = runWithSentinel(t, e, log, n, int64(k+1), &collected[k])
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
	for k, r := range reports {
		if r.UnitsDone != sizes[k] || len(r.PilotWaits) == 0 {
			t.Fatalf("job %d's report lost its outcome: %d units done, %d pilot waits", k, r.UnitsDone, len(r.PilotWaits))
		}
	}
}
