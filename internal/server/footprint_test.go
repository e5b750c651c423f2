package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"aimes"
	"aimes/client"
	"aimes/internal/batch"
	"aimes/internal/skeleton"
)

var lateBackfill = aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}

// bagRequest is a submission of an n-task bag of tasks lasting seconds each.
func bagRequest(t *testing.T, n int, seconds float64, seed int64) *client.SubmitRequest {
	t.Helper()
	w, err := aimes.GenerateWorkload(aimes.AppSpec{
		Name:   "bag",
		Stages: []aimes.StageSpec{{Name: "main", Tasks: n, DurationS: aimes.ConstantSpec(seconds)}},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteMiddlewareJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return &client.SubmitRequest{Workload: buf.Bytes(), Config: lateBackfill}
}

// TestRegistryTrimReleasesEvicted: retention trims filter the submission
// order in place; the vacated tail of the backing array must not keep the
// evicted records — each with its job, workload and report — reachable.
func TestRegistryTrimReleasesEvicted(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(5), aimes.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	const retain = 4
	r := newRegistry(env, newMetrics(), retain)
	for i := 0; i < 3*retain; i++ {
		req := bagRequest(t, 4, 900, int64(i))
		w, err := skeleton.ParseWorkload(req.Workload)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := r.submit(Tenant{Name: "solo"}, w, req)
		if err != nil {
			t.Fatal(err)
		}
		<-rec.job.Done()
	}
	r.wg.Wait() // every pump has settled its job, trimming as it went
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.order) != retain || len(r.jobs) != retain {
		t.Fatalf("registry retains %d jobs in order, %d by ID; want %d", len(r.order), len(r.jobs), retain)
	}
	if cap(r.order) == len(r.order) {
		t.Fatal("no spare capacity behind the order slice: the test exercises nothing")
	}
	for i, rec := range r.order[len(r.order):cap(r.order)] {
		if rec != nil {
			t.Errorf("spare slot %d behind the order slice still holds evicted job %s", i, rec.id)
		}
	}
}

// quietGoroutines waits for the goroutine count to hold still for a tenth of a
// second and returns it: the baseline a footprint is measured against.
func quietGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for same < 20 {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// settleGoroutines polls until the goroutine count is at most limit, and
// returns the last count: connection and timer goroutines unwind a moment
// after the work that started them is over.
func settleGoroutines(limit int) int {
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= limit || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// daemon stands up a server over env for one unlimited tenant on a loopback
// listener, with a client whose idle connections idle() closes.
func daemon(t *testing.T, env *aimes.Environment) (c *client.Client, idle func()) {
	t.Helper()
	auth, err := NewAuth(map[string]Tenant{"tok": {Name: "soak"}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Env: env, Auth: auth})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	tr := &http.Transport{}
	t.Cleanup(func() {
		tr.CloseIdleConnections()
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return client.New(hs.URL, "tok").WithHTTPClient(&http.Client{Transport: tr}), tr.CloseIdleConnections
}

// TestDaemonFootprint is the daemon's per-job cost, as the reduced form of a
// soak: a job in flight costs one goroutine (its pump), a wall-clock shard
// with events pending one more (its pacer), a finished job costs none, and a
// retained job holds what it logged plus its report — no fixed-size buffer.
func TestDaemonFootprint(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// In flight: 200 jobs of minute-long tasks on a wall-clock environment
	// stay in flight until canceled.
	t.Run("goroutines", func(t *testing.T) {
		site := func(name string) aimes.SiteConfig {
			return aimes.SiteConfig{
				Name: name, Nodes: 8, CoresPerNode: 4, Architecture: "beowulf",
				WaitModel: batch.WaitModel{MedianWait: 30 * time.Millisecond, Sigma: 0.4,
					MinWait: 10 * time.Millisecond, MaxWait: 150 * time.Millisecond},
				SubmitLatency: 2 * time.Millisecond,
				BandwidthMBps: 1000, NetLatency: time.Millisecond, StorageGB: 10,
			}
		}
		env, err := aimes.NewEnv(aimes.WithRealTime(), aimes.WithSeed(7), aimes.WithSites(site("left"), site("right")))
		if err != nil {
			t.Fatal(err)
		}
		c, idle := daemon(t, env)
		if _, err := c.List(ctx); err != nil { // the listener and the first connection exist before the baseline
			t.Fatal(err)
		}
		idle()
		base := quietGoroutines()

		const inflight = 200
		ids := make([]string, inflight)
		for i := range ids {
			info, err := c.SubmitRaw(ctx, bagRequest(t, 1, 60, int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = info.ID
		}
		idle()
		if n := settleGoroutines(base + inflight + 1); n > base+inflight+1 {
			t.Errorf("%d jobs in flight, nobody attached: %d goroutines over a baseline of %d, want at most one per job and the shard's pacer", inflight, n, base)
		}
		for _, id := range ids {
			if _, err := c.Cancel(ctx, id, "footprint measured"); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ids {
			if _, err := c.Wait(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
		idle()
		if n := settleGoroutines(base); n > base {
			t.Errorf("all jobs ended: %d goroutines, baseline %d", n, base)
		}
	})

	// Retained: 2 000 small jobs, half followed over SSE and half
	// long-polled, all left in the registry.
	t.Run("retained", func(t *testing.T) {
		env, err := aimes.NewEnv(aimes.WithSeed(20260928), aimes.WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		c, idle := daemon(t, env)
		const jobs, clients = 2000, 8
		reqs := make([]*client.SubmitRequest, 16)
		for i := range reqs {
			reqs[i] = bagRequest(t, 8, 900, int64(i))
		}
		one := func(i int) {
			info, err := c.SubmitRaw(ctx, reqs[i%len(reqs)])
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 1 {
				if _, err := c.Wait(ctx, info.ID); err != nil {
					t.Error(err)
				}
				return
			}
			es, err := c.Events(ctx, info.ID, 0)
			if err != nil {
				t.Error(err)
				return
			}
			var last int64
			for ev := range es.C {
				if ev.Seq != last+1 {
					t.Errorf("job %s: event %d follows %d", info.ID, ev.Seq, last)
				}
				last = ev.Seq
			}
			if fin := es.Final(); fin == nil || fin.State != "done" || es.Dropped() != 0 || last == 0 {
				t.Errorf("job %s: stream ended after %d events with final %+v, %d dropped", info.ID, last, fin, es.Dropped())
			}
		}
		one(0) // connections, encoders and the first log segments exist before the baseline
		idle()
		base := quietGoroutines()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)

		var wg sync.WaitGroup
		for k := 0; k < clients; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 1 + k; i <= jobs; i += clients {
					one(i)
				}
			}()
		}
		wg.Wait()
		idle()
		if n := settleGoroutines(base); n > base {
			t.Errorf("%d jobs done and retained: %d goroutines, baseline %d", jobs, n, base)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		list, err := c.List(ctx)
		if err != nil || len(list) != jobs+1 {
			t.Fatalf("registry lists %d jobs (%v), want %d retained", len(list), err, jobs+1)
		}
		if perJob := (int64(after.HeapInuse) - int64(before.HeapInuse)) / jobs; perJob > 32<<10 {
			t.Errorf("a retained job holds %d KB of heap in use, want under 32 KB", perJob>>10)
		} else {
			t.Logf("heap in use per retained job: %.1f KB", float64(perJob)/1024)
		}
	})
}
