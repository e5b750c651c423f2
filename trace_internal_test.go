package aimes

import (
	"context"
	"reflect"
	"testing"

	"aimes/internal/trace"
)

// TestJobTraceAllocatesNothingPerRecord pins what recording one transition
// costs while readers are attached — one to the job, one to the whole
// environment, neither reading: an append to the shard's log and a wake-up,
// no object per record and none per reader. (Away from a segment boundary:
// the log allocates once per 1024 records, which TestLogAppendAllocs counts.)
func TestJobTraceAllocatesNothingPerRecord(t *testing.T) {
	env, err := NewEnv(WithSeed(1), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	w, err := GenerateWorkload(BagOfTasks(4, UniformDuration()), 1)
	if err != nil {
		t.Fatal(err)
	}
	j, err := env.Submit(context.Background(), w, JobConfig{
		StrategyConfig: StrategyConfig{Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sub, all := j.Subscribe(1), env.Subscribe()
	defer sub.Close()
	defer all.Close()
	enacted := env.Recorder().Len()

	sh, ns := env.shards[0], j.Namespace()
	rec := trace.Record{Time: 1, Entity: "unit.t0001", State: "EXECUTING"}
	const runs = 500 // with the enactment's records, well inside the first segment
	sh.mu.Lock()     // JobTrace runs under the shard's engine serialization
	allocs := testing.AllocsPerRun(runs, func() { sh.JobTrace(j.id, ns, rec) })
	sh.mu.Unlock()
	if allocs != 0 {
		t.Errorf("JobTrace allocates %v objects per record with idle readers attached, want 0", allocs)
	}

	// The readers were woken, lost nothing, and find every record in the log.
	var buf [1024]trace.Record
	if n, seq, _ := sub.Read(buf[:]); seq != 1 || n != enacted+runs+1 || buf[n-1] != rec {
		t.Errorf("the job's reader got %d records from seq %d, want %d from 1, ending in the appended one", n, seq, enacted+runs+1)
	}
	if n, _, _ := all.Read(buf[:]); n != runs+1 || sub.Dropped()+all.Dropped() != 0 {
		t.Errorf("the environment's reader got %d records, want %d; dropped %d + %d", n, runs+1, sub.Dropped(), all.Dropped())
	}
	j.Cancel("measured")
}

// TestWorkerRecordsStayInline runs one 64-task job on a stdio worker shard,
// fleet-mixed's path, and the same job on a local shard. On the worker
// shard every record's entity reaches the log as an entry of the session's
// intern table, which its stream holds, so no record is stored out of line;
// nor is one on the local shard, whose records are coded against the job's
// unit ids and its pilots' names. Job.Events reads the same events on both.
func TestWorkerRecordsStayInline(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a worker process")
	}
	run := func(opts ...Option) []Event {
		env, err := NewEnv(append(opts, WithSeed(7))...)
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		w, err := GenerateWorkload(BagOfTasks(64, UniformDuration()), 3)
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.Submit(context.Background(), w, JobConfig{
			StrategyConfig: StrategyConfig{Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		var evs []Event
		for ev := range j.Events() {
			evs = append(evs, ev)
		}
		if n := env.shards[0].log.OutOfLine(); n != 0 {
			t.Errorf("%d of the job's %d records are stored out of line", n, len(evs))
		}
		return evs
	}
	worker := run(WithWorkerPool(WorkerPool{}))
	local := run()
	if len(worker) < 7*64 || !reflect.DeepEqual(worker, local) {
		t.Fatalf("the job's events on a worker shard (%d) differ from those on a local shard (%d)", len(worker), len(local))
	}
}
