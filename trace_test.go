// Trace-store contract: the environment keeps one log per shard and
// Recorder / ShardRecorder / Subscribe are views over it. These tests pin
// what the views promise on both backends — always time-sorted, safe to take
// repeatedly, equal to the stable merge of the shard views, equal record for
// record to the jobs' own event streams, and equal to what a live
// subscription delivers.
package aimes_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"aimes"
	"aimes/internal/sim"
	"aimes/internal/trace"
)

// traceBackends are the two sides of the Backend seam the trace contract
// must hold on: n in-process shards, or n worker children.
var traceBackends = []struct {
	name string
	opts func(n int) []aimes.Option
}{
	{"local", func(n int) []aimes.Option { return []aimes.Option{aimes.WithShards(n)} }},
	{"worker", processWorkers},
}

func submitPinnedBag(t *testing.T, env *aimes.Environment, shard, tasks int, seed int64) *aimes.Job {
	t.Helper()
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(tasks, aimes.UniformDuration()), seed)
	if err != nil {
		t.Fatal(err)
	}
	j, err := env.Submit(context.Background(), w, aimes.JobConfig{
		StrategyConfig: aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2},
		Placement:      aimes.PlacePinned, Shard: shard,
	})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// unsortedAt returns the index of the first record earlier than its
// predecessor, or -1 when recs is time-sorted.
func unsortedAt(recs []aimes.TraceRecord) int {
	for i := 1; i < len(recs); i++ {
		if recs[i].Time < recs[i-1].Time {
			return i
		}
	}
	return -1
}

func requireTimeSorted(t *testing.T, what string, recs []aimes.TraceRecord) {
	t.Helper()
	if i := unsortedAt(recs); i >= 0 {
		t.Fatalf("%s: record %d at %v follows one at %v", what, i, recs[i].Time, recs[i-1].Time)
	}
}

// TestRecorderSortedAcrossReads is the drain-order regression: a job runs on
// shard 1, the aggregate is read, a job runs on shard 0 — whose independent
// clock starts over at zero — and the aggregate is read again. The second
// view must be one time-sorted timeline holding every record of the first,
// and the first must not have changed under its reader.
func TestRecorderSortedAcrossReads(t *testing.T) {
	for _, b := range traceBackends {
		t.Run(b.name, func(t *testing.T) {
			env, err := aimes.NewEnv(append(b.opts(2), aimes.WithSeed(1407))...)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			waitAllDeadline(t, []*aimes.Job{submitPinnedBag(t, env, 1, 8, 1)}, 60*time.Second)
			first := env.Recorder()
			firstLen := first.Len()
			if firstLen == 0 {
				t.Fatal("first view is empty")
			}
			waitAllDeadline(t, []*aimes.Job{submitPinnedBag(t, env, 0, 8, 2)}, 60*time.Second)
			second := env.Recorder().Records()
			if first.Len() != firstLen {
				t.Fatalf("first view grew from %d to %d records after it was returned", firstLen, first.Len())
			}
			if len(second) <= firstLen {
				t.Fatalf("second view holds %d records, first held %d", len(second), firstLen)
			}
			requireTimeSorted(t, "second view", second)
			left := map[aimes.TraceRecord]int{}
			for _, r := range second {
				left[r]++
			}
			for _, r := range first.Records() {
				if left[r] == 0 {
					t.Fatalf("second view lost %+v", r)
				}
				left[r]--
			}
		})
	}
}

// ownedBy reports whether a qualified trace entity belongs to the job with
// namespace ns: "em.<ns>", "unit.<ns>.<name>" or "pilot.<resource>.<ns>-<n>".
func ownedBy(entity, ns string) bool {
	return entity == "em."+ns || strings.HasPrefix(entity, "unit."+ns+".") ||
		(strings.HasPrefix(entity, "pilot.") && strings.Contains(entity, "."+ns+"-"))
}

// TestRecorderIsMergeOfShardsAndEvents is the generative check of the two
// views against each other and against the per-job streams: over seeded job
// mixes on {local, worker} x {1, 2 shards}, Recorder() is exactly the stable
// time-merge of the ShardRecorder(k) views, and its records are exactly each
// job's Events stream, in order, with every entity passed through
// QualifyEntity under the job's namespace.
func TestRecorderIsMergeOfShardsAndEvents(t *testing.T) {
	cfgs := []aimes.StrategyConfig{
		{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2},
		{Binding: aimes.EarlyBinding, Scheduler: aimes.SchedDirect, Pilots: 1},
		{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 3},
	}
	for _, b := range traceBackends {
		for _, shards := range []int{1, 2} {
			for seed := int64(1); seed <= 8; seed++ {
				t.Run(fmt.Sprintf("%s/%dshards/seed%d", b.name, shards, seed), func(t *testing.T) {
					env, err := aimes.NewEnv(append(b.opts(shards), aimes.WithSeed(seed))...)
					if err != nil {
						t.Fatal(err)
					}
					defer env.Close()
					rng := rand.New(rand.NewSource(seed))
					var jobs []*aimes.Job
					for i, n := 0, 3+rng.Intn(4); i < n; i++ {
						w, err := aimes.GenerateWorkload(
							aimes.BagOfTasks(4+rng.Intn(12), aimes.UniformDuration()), rng.Int63())
						if err != nil {
							t.Fatal(err)
						}
						cfg := aimes.JobConfig{StrategyConfig: cfgs[rng.Intn(len(cfgs))]}
						if rng.Intn(2) == 0 {
							cfg.Placement, cfg.Shard = aimes.PlacePinned, rng.Intn(shards)
						}
						j, err := env.Submit(context.Background(), w, cfg)
						if err != nil {
							t.Fatal(err)
						}
						jobs = append(jobs, j)
					}
					waitAllDeadline(t, jobs, 120*time.Second)

					agg := env.Recorder().Records()
					var merged []aimes.TraceRecord
					for k := 0; k < shards; k++ {
						merged = append(merged, env.ShardRecorder(k).Records()...)
					}
					sort.SliceStable(merged, func(i, j int) bool { return merged[i].Time < merged[j].Time })
					if !reflect.DeepEqual(agg, merged) {
						t.Fatalf("Recorder() (%d records) is not the stable time-merge of the shard views (%d records)",
							len(agg), len(merged))
					}

					owned := 0
					for _, j := range jobs {
						if d := j.EventsDropped(); d != 0 {
							t.Fatalf("job %d dropped %d events", j.ID(), d)
						}
						ns := j.Namespace()
						var want []aimes.TraceRecord
						for ev := range j.Events() {
							if ev.Job != j.ID() || ev.Seq != int64(len(want)+1) {
								t.Fatalf("job %d: event %d carries job %d, seq %d", j.ID(), len(want)+1, ev.Job, ev.Seq)
							}
							want = append(want, aimes.TraceRecord{Time: sim.Time(ev.Time),
								Entity: trace.QualifyEntity(ev.Entity, ns), State: ev.State, Detail: ev.Detail})
						}
						var got []aimes.TraceRecord
						for _, r := range agg {
							if ownedBy(r.Entity, ns) {
								got = append(got, r)
							}
						}
						if len(want) == 0 || !reflect.DeepEqual(got, want) {
							t.Fatalf("job %d (%s): aggregate holds %d of its records, its event stream %d, or they differ",
								j.ID(), ns, len(got), len(want))
						}
						owned += len(got)
					}
					if owned != len(agg) {
						t.Fatalf("aggregate holds %d records, the jobs' streams account for %d", len(agg), owned)
					}
				})
			}
		}
	}
}

// TestSubscriptionIsTailOfShardView opens a subscription mid-run — every job
// is enacted and has records in its shard's log, none has advanced yet — and
// requires what it then receives to equal, field for field, the tail of each
// shard's later view: the live stream and the stored trace are the same
// records, because the stream is a cursor over the log the view snapshots.
func TestSubscriptionIsTailOfShardView(t *testing.T) {
	for _, b := range traceBackends {
		t.Run(b.name, func(t *testing.T) {
			const shards = 2
			env, err := aimes.NewEnv(append(b.opts(shards), aimes.WithSeed(733))...)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			var jobs []*aimes.Job
			for i := 0; i < 4; i++ {
				jobs = append(jobs, submitPinnedBag(t, env, i%shards, 6+i, int64(40+i)))
			}
			var before [shards]int
			for k := range before {
				if before[k] = env.ShardRecorder(k).Len(); before[k] == 0 {
					t.Fatalf("shard %d logged nothing at enactment; the subscription would not open mid-run", k)
				}
			}
			sub := env.Subscribe()
			var streamed [shards][]aimes.TraceRecord
			done := make(chan struct{})
			go func() {
				defer close(done)
				for r := range sub.C() {
					for k := range streamed {
						if strings.Contains(r.Entity, fmt.Sprintf(".s%d-j", k)) {
							streamed[k] = append(streamed[k], r)
						}
					}
				}
			}()
			waitAllDeadline(t, jobs, 120*time.Second)
			sub.Close()
			<-done
			sub.Close() // idempotent
			if d := sub.Dropped(); d != 0 {
				t.Fatalf("subscription dropped %d records", d)
			}
			for k := range streamed {
				view := env.ShardRecorder(k).Records()
				requireTimeSorted(t, fmt.Sprintf("shard %d view", k), view)
				if tail := view[before[k]:]; len(tail) == 0 || !reflect.DeepEqual(streamed[k], tail) {
					t.Fatalf("shard %d: subscription streamed %d records, the view's tail holds %d, or they differ",
						k, len(streamed[k]), len(tail))
				}
			}
		})
	}
}

// TestRecorderMidRun takes the views from other goroutines while waiters
// pump both shards: every snapshot must be time-sorted and no smaller than
// the one the same reader took before (under -race this is also the check
// that a read is serialized with the shard's appends).
func TestRecorderMidRun(t *testing.T) {
	for _, b := range traceBackends {
		t.Run(b.name, func(t *testing.T) {
			env, err := aimes.NewEnv(append(b.opts(2), aimes.WithSeed(2112))...)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			var jobs []*aimes.Job
			for i := 0; i < 8; i++ {
				jobs = append(jobs, submitPinnedBag(t, env, i%2, 16, int64(70+i)))
			}
			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for last := 0; ; {
						recs := env.Recorder().Records()
						if i := unsortedAt(recs); i >= 0 {
							t.Errorf("mid-run view: record %d at %v follows one at %v", i, recs[i].Time, recs[i-1].Time)
							return
						}
						if len(recs) < last {
							t.Errorf("mid-run view shrank from %d to %d records", last, len(recs))
							return
						}
						last = len(recs)
						for _, l := range env.Loads() {
							if l.TraceDropped != 0 {
								t.Errorf("shard %d evicted %d records under the retention", l.Shard, l.TraceDropped)
								return
							}
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
			}
			waitAllDeadline(t, jobs, 120*time.Second)
			close(stop)
			readers.Wait()
			// Retained and dropped account for every record a shard appended.
			for _, l := range env.Loads() {
				if n := int64(env.ShardRecorder(l.Shard).Len()); l.TraceRetained+l.TraceDropped != n {
					t.Errorf("shard %d: %d records retained + %d dropped, its trace holds %d", l.Shard, l.TraceRetained, l.TraceDropped, n)
				}
			}
		})
	}
}
