package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aimes/internal/trace"
)

// runWithSentinel executes one bag of n tasks to completion on e's manager
// and returns nothing of it. The execution's recorder — reachable from every
// unit through the pilot system — carries an observer holding a sentinel: a
// pointer-free block, so no cycle can keep its finalizer from running, which
// is collected exactly when the job's unit graph is.
func runWithSentinel(t *testing.T, e *env, n int, seed int64, collected *atomic.Bool) {
	t.Helper()
	sentinel := new([16]byte)
	runtime.SetFinalizer(sentinel, func(*[16]byte) { collected.Store(true) })
	rec := trace.NewRecorder()
	rec.Observe(func(trace.Record) { runtime.KeepAlive(sentinel) })

	w := botWorkload(t, n, seed)
	s, err := Derive(w, e.bndl, StrategyConfig{
		Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 3, Selection: SelectRandom,
	}, e.mgr.rng)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := e.mgr.ExecuteWith(w, s, ExecOptions{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	report, err := e.mgr.WaitFor(ex)
	if err != nil {
		t.Fatal(err)
	}
	if report.UnitsDone != n {
		t.Fatalf("job of %d tasks finished %d", n, report.UnitsDone)
	}
}

// TestFinishedJobIsCollectable runs jobs back to back on one manager — one
// long-lived engine, testbed and set of WAN links, as on an environment
// shard — and requires that job k's unit graph is garbage once job k+1 has
// completed. The links outlive every job; a stale transfer pointer left in
// one of their queues pins the transfer's onDone closure, its unit, the unit
// manager and every unit of that job.
func TestFinishedJobIsCollectable(t *testing.T) {
	e := newEnv(t, 11)
	sizes := []int{256, 16, 128, 8, 64, 32}
	collected := make([]atomic.Bool, len(sizes))
	for k, n := range sizes {
		runWithSentinel(t, e, n, int64(k+1), &collected[k])
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
}
