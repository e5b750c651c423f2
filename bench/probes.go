package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"aimes"
	"aimes/client"
	"aimes/internal/backend"
	"aimes/internal/batch"
	"aimes/internal/core"
	"aimes/internal/experiments"
	"aimes/internal/model"
	"aimes/internal/netsim"
	"aimes/internal/shard"
	"aimes/internal/sim"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// runTraced is the traced run: the per-layer ledger of one workload. It has
// three stages, all read from outside the program.
//
// Path: pairs of rounds on the same epochs, untraced then traced. The traced
// round records a span around every call bench makes into a layer and counts
// at the same places; the pair's wall-clock difference is the tracing
// overhead.
//
// Replays: the workload's first epoch, as one client's list, driven through
// successively deeper stacks — a bare backend.Local, an Environment, a
// worker behind a counted transport, a server behind a counted HTTP client.
// The differences are each layer's own cost for these jobs. The replay rows
// are a layer's cost for this workload's jobs whether or not the workload's
// own path crosses the layer.
//
// Probes: fixed-size calls into the leaf packages.
func runTraced(w *workload, seed int64, rounds int, traceOut string, stdout io.Writer) (*result, error) {
	v := newVerifier(w.pinned)
	m := map[string]float64{}

	pairs := min(max(rounds/4, 1), 4)
	tr := newTracer()
	inspect := func(st *stack) {
		tr.add("aimes.recorder_records", float64(st.env.Recorder().Len()))
		ss := st.env.StealStats()
		tr.add("aimes.migrations", float64(ss.Migrations))
		tr.add("aimes.steal_vetoes", float64(ss.Vetoed))
		tr.add("aimes.foreign_pumps", float64(ss.ForeignPumps))
	}
	var plain, traced time.Duration // at the quiet runner's speed
	var total roundStats
	for p := 0; p < pairs; p++ {
		// The first round of a pair is remembered, the second must repeat
		// it; which of the two is traced alternates, so that running second
		// favours neither.
		for i := 0; i < 2; i++ {
			t, look := (*tracer)(nil), (func(*stack))(nil)
			if (i == 0) != (p%2 == 0) {
				t, look = tr, inspect
			}
			rs, _, _, err := measureRound(w, w.drive, seed, p*w.epochs, v, true, t, look)
			if err != nil {
				return nil, err
			}
			if wall := time.Duration(float64(rs.wall) * rs.speed(w)); t == nil {
				plain += wall
			} else {
				traced += wall
			}
			total.add(rs)
		}
	}
	rounds = 2 * pairs
	m["bench.trace_overhead_share"] = (traced - plain).Seconds() / plain.Seconds()
	m["bench.runner_speed"] = speed(total.yard, rounds*(w.epochs+1))
	m["skeleton.generate_us_per_job"] = us(total.generate) / float64(total.jobs)
	m["aimes.newenv_ms"] = ms(total.openClose) / float64(rounds*w.epochs)
	m["aimes.recorder_records_per_job"] = tr.per("aimes.recorder_records", "jobs")
	m["aimes.migrations_per_job"] = tr.per("aimes.migrations", "jobs")
	m["aimes.steal_vetoes_per_job"] = tr.per("aimes.steal_vetoes", "jobs")
	m["aimes.foreign_pumps_per_job"] = tr.per("aimes.foreign_pumps", "jobs")
	m["shard.imbalance"] = imbalance(tr)

	// The aimes.* call rows need Job handles. Over HTTP bench holds none, so
	// they come from one traced round of the same epochs driven in process.
	inproc := tr
	if w.overHTTP {
		inproc = newTracer()
		if _, _, _, err := measureRound(w, closedLoop, seed, 0, v, false, inproc, nil); err != nil {
			return nil, err
		}
	}
	admit := inproc.durations("aimes.admit_wait", time.Millisecond)
	m["aimes.submit_call_us_p50"] = percentile(inproc.durations("aimes.Submit", time.Microsecond), 50)
	m["aimes.admit_wait_ms_p50"] = percentile(admit, 50)
	m["aimes.admit_wait_ms_p99"] = percentile(admit, 99)
	m["aimes.events_per_job"] = inproc.per("aimes.events", "jobs") + inproc.per("aimes.events_dropped", "jobs")
	m["aimes.events_dropped_per_job"] = inproc.per("aimes.events_dropped", "jobs")
	m["model.rel_error_mean"] = inproc.per("model.rel_error", "model.scored")

	if err := replays(w, seed, v, m); err != nil {
		return nil, err
	}
	if err := probes(m); err != nil {
		return nil, err
	}

	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "# self time %-20s %10.1f ms\n", name, ms(self[name]))
	}
	if traceOut != "" {
		if err := tr.write(traceOut); err != nil {
			return nil, err
		}
	}
	return &result{
		metrics: m, attempted: v.attempted, failed: v.failed, firstMiss: v.firstMiss,
		rounds: rounds, samples: total.jobs, timed: total.wall, speed: m["bench.runner_speed"],
	}, nil
}

// imbalance is the busiest shard's job count over the mean.
func imbalance(tr *tracer) float64 {
	var most, sum, shards float64
	for k := 0; ; k++ {
		n, ok := tr.counts[fmt.Sprintf("jobs.shard%d", k)]
		if !ok {
			break
		}
		most, sum, shards = max(most, n), sum+n, shards+1
	}
	if sum == 0 {
		return 0
	}
	return most / (sum / shards)
}

// flatten turns an epoch's inputs into one client's list on a one-shard
// stack, alternating long-poll and SSE over HTTP.
func flatten(in epochInput) epochInput {
	var list []jobSpec
	for _, c := range in.clients {
		for _, js := range c {
			list = append(list, jobSpec{
				w: js.w, cfg: aimes.JobConfig{StrategyConfig: js.cfg.StrategyConfig}, sse: len(list)%2 == 1,
			})
		}
	}
	return epochInput{seed: in.seed, clients: [][]jobSpec{list}}
}

// replays fills the rows that are differences between stacks.
func replays(w *workload, seed int64, v *verifier, m map[string]float64) error {
	seed = epochSeed(seed, 0)
	in, err := w.generate(seed)
	if err != nil {
		return err
	}
	flat := flatten(in)
	list := flat.clients[0]
	jobs := float64(len(list))
	cfg := backend.Config{Shard: 0, Seed: shard.Seed(seed, 0)}

	// A bare local backend: the engine's share.
	deriver, err := backend.NewLocal(cfg, &countSink{})
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, js := range list {
		if _, err := deriver.Derive(js.w, js.cfg.StrategyConfig); err != nil {
			return err
		}
	}
	m["core.derive_us_per_job"] = us(time.Since(t0)) / jobs
	sink := &countSink{}
	local, err := backend.NewLocal(cfg, sink)
	if err != nil {
		return err
	}
	engine, err := driveBackend(local, sink, list)
	if err != nil {
		return err
	}
	m["backend.local_enact_us_per_job"] = us(engine.enact) / jobs
	m["backend.local_step_us_per_job"] = us(engine.step) / jobs
	m["backend.steps_per_job"] = float64(engine.steps) / jobs
	m["sim.events_per_job"] = float64(engine.fired) / jobs
	m["trace.records_per_job"] = float64(sink.traces) / jobs

	// The same jobs through an Environment: what package aimes adds.
	st, err := openLocal(1, false)(seed)
	if err != nil {
		return err
	}
	t0 = time.Now()
	outs := closedLoop(st, flat, nil)
	inProcess := time.Since(t0)
	st.close()
	v.check(-1, outs, false)
	m["aimes.self_us_per_job"] = us(inProcess-engine.enact-engine.step) / jobs

	// The same jobs through a worker child behind a counted transport: what
	// the wire adds.
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var wire atomic.Int64
	sink = &countSink{}
	t0 = time.Now()
	worker, err := backend.Connect(countedTransport{&backend.ProcessTransport{Argv: []string{self}}, &wire},
		backend.WorkerOptions{Codec: backend.CodecBinary}, cfg, sink, nil)
	if err != nil {
		return err
	}
	m["backend.dial_ms"] = ms(time.Since(t0))
	handshake := wire.Load()
	remote, err := driveBackend(worker, sink, list)
	worker.Close()
	if err != nil {
		return err
	}
	m["backend.enact_rtt_us_p50"] = percentile(sortedCopy(remote.enactRTT), 50)
	m["backend.step_rtt_us_p50"] = percentile(sortedCopy(remote.stepRTT), 50)
	m["backend.events_per_step"] = float64(sink.traces) / float64(remote.steps)
	m["backend.round_trips_per_job"] = float64(len(list)+remote.steps) / jobs
	m["backend.wire_bytes_per_job"] = float64(wire.Load()-handshake) / jobs
	m["backend.wire_self_us_per_job"] = us(remote.enact+remote.step-engine.enact-engine.step) / jobs

	// The same jobs through a server and the HTTP client: what the service
	// tier adds.
	st, err = serverStack(seed, 1)
	if err != nil {
		return err
	}
	tr := newTracer()
	t0 = time.Now()
	outs = httpStream(st, flat, tr)
	overHTTP := time.Since(t0)
	st.close()
	v.check(-1, outs, false)
	m["server.self_us_per_job"] = us(overHTTP-inProcess) / jobs
	m["server.sse_events_per_job"] = tr.per("server.sse_events", "server.sse_jobs")
	m["server.sse_bytes_per_job"] = tr.per("server.sse_bytes", "server.sse_jobs")
	m["server.rejected_share"] = tr.per("server.rejected", "server.attempts")
	m["client.submit_rtt_us_p50"] = percentile(tr.durations("client.Submit", time.Microsecond), 50)
	m["client.wait_rtt_ms_p50"] = percentile(tr.durations("client.Wait", time.Millisecond), 50)
	m["client.requests_per_job"] = tr.per("client.requests", "server.attempts")
	m["client.http_bytes_per_job"] = tr.per("client.http_bytes", "server.attempts")
	return nil
}

// countSink is the backend's sink when bench drives a backend directly:
// it counts trace records and notes completions.
type countSink struct {
	traces int
	done   map[int]int // job key → units done
}

func (s *countSink) JobTrace(int, string, trace.Record) { s.traces++ }

func (s *countSink) JobDone(key int, r *core.Report) {
	if s.done == nil {
		s.done = map[int]int{}
	}
	s.done[key] = r.UnitsDone
}

type directStats struct {
	enact, step       time.Duration
	steps, fired      int
	enactRTT, stepRTT []float64 // µs per call
}

// driveBackend runs jobs one at a time on a bare backend: Enact, then
// Step(512) until the job's report arrives.
func driveBackend(be backend.Backend, sink *countSink, jobs []jobSpec) (directStats, error) {
	var ds directStats
	for i, js := range jobs {
		key := i + 1
		t := time.Now()
		_, err := be.Enact(&backend.Descriptor{Key: key, MigratedFrom: -1,
			Descriptor: core.Descriptor{Workload: js.w, Config: js.cfg.StrategyConfig}})
		d := time.Since(t)
		if err != nil {
			return ds, fmt.Errorf("enacting job %d directly: %w", key, err)
		}
		ds.enact += d
		ds.enactRTT = append(ds.enactRTT, us(d))
		for {
			if units, done := sink.done[key]; done {
				if units != js.w.TotalTasks() {
					return ds, fmt.Errorf("job %d driven directly finished %d of %d units", key, units, js.w.TotalTasks())
				}
				break
			}
			t := time.Now()
			n, drained, err := be.Step(512)
			d := time.Since(t)
			if err != nil {
				return ds, fmt.Errorf("stepping job %d directly: %w", key, err)
			}
			ds.step += d
			ds.stepRTT = append(ds.stepRTT, us(d))
			ds.steps++
			ds.fired += n
			if _, done := sink.done[key]; drained && !done {
				return ds, fmt.Errorf("job %d driven directly: %w", key, be.Incomplete(key))
			}
		}
	}
	return ds, nil
}

// countedTransport counts the bytes a worker session moves, both ways.
type countedTransport struct {
	backend.Transport
	n *atomic.Int64
}

func (t countedTransport) Dial(shard int, onDeath func(error)) (backend.Conn, error) {
	c, err := t.Transport.Dial(shard, onDeath)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, n: t.n}, nil
}

type countedConn struct {
	backend.Conn
	n *atomic.Int64
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// perOp times n calls of fn and counts their allocations.
func perOp(n int, fn func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// sunk and sunkString keep probe results alive, so the compiler can neither
// drop the calls nor keep their results on the stack.
var (
	sunk       int
	sunkString string
)

// probes fills the rows measured by fixed-size calls into leaf packages.
func probes(m map[string]float64) error {
	// shard: every policy, two shards.
	picker := shard.NewPicker(2)
	picker.SetModel(constModel{})
	policies := []shard.Policy{shard.RoundRobin, shard.LeastLoaded, shard.Pinned, shard.Predictive}
	m["shard.pick_ns"], _ = perOp(400_000, func(i int) {
		k, _ := picker.Pick(policies[i%len(policies)], i%2, 900, func(k int) float64 { return float64(k) })
		sunk += k
	})

	// model
	cm := model.New(model.Config{Shards: 2, Backend: model.BackendLocal})
	m["model.predict_ns"], _ = perOp(400_000, func(i int) { sunk += int(cm.Predict(i%2, 900, 4500).Total) })
	m["model.observe_ns"], _ = perOp(400_000, func(i int) {
		cm.Observe(model.Observation{Shard: i % 2, Cost: 900, Wait: 600, TTC: 2400 + float64(i%7), Events: 700, EventsJobs: 1, Predicted: 2300})
	})

	// sim: schedule and fire with 4096 events pending; cancel.
	eng := sim.NewSim()
	noop := func() {}
	for i := 0; i < 4096; i++ {
		eng.Schedule(time.Duration(i+1)*time.Hour, noop)
	}
	m["sim.ns_per_event"], m["sim.allocs_per_event"] = perOp(400_000, func(int) {
		eng.Schedule(time.Microsecond, noop)
		eng.Step()
	})
	const cancels = 100_000
	evs := make([]*sim.Event, cancels)
	for i := range evs {
		evs[i] = eng.Schedule(time.Duration(i%977+1)*time.Second, noop)
	}
	m["sim.cancel_ns"], _ = perOp(cancels, func(i int) { eng.Cancel(evs[i]) })

	// trace: record, qualify, wire form.
	rec := trace.NewRecorder()
	m["trace.record_ns"], _ = perOp(400_000, func(i int) { rec.Record(sim.Time(i), "unit.t0004", "EXECUTING", "") })
	m["trace.qualify_ns"], m["trace.qualify_allocs"] = perOp(400_000, func(i int) {
		sunkString = trace.QualifyEntity("unit.t0004", "s0-j3")
	})
	wr := trace.WireRecord{Time: sim.Time(90 * time.Minute), Entity: "unit.t0004", State: "EXECUTING"}
	var buf []byte
	m["trace.wire_encode_ns"], _ = perOp(400_000, func(int) { buf = wr.AppendWire(buf[:0]) })
	m["trace.wire_bytes_per_record"] = float64(len(buf))
	interned := map[string]string{}
	intern := func(b []byte) string {
		if s, ok := interned[string(b)]; ok {
			return s
		}
		interned[string(b)] = string(b)
		return interned[string(b)]
	}
	var derr error
	m["trace.wire_decode_ns"], _ = perOp(400_000, func(int) {
		var out trace.WireRecord
		if _, err := out.DecodeWire(buf, intern); err != nil {
			derr = err
		}
	})
	if derr != nil {
		return fmt.Errorf("trace wire probe: %w", derr)
	}

	// netsim: n transfers started at once on one link.
	m["netsim.ns_per_transfer_n64"], _ = netsimWave(64, 40)
	m["netsim.ns_per_transfer_n2048"], m["netsim.sim_events_per_transfer_n2048"] = netsimWave(2048, 1)

	// batch: EASY backfill over a 256-deep queue.
	rng := rand.New(rand.NewSource(1))
	queue := make([]*batch.Job, 256)
	for i := range queue {
		queue[i] = &batch.Job{ID: "q", Nodes: 1 + rng.Intn(64),
			Runtime:  time.Duration(rng.Intn(7200)) * time.Second,
			Walltime: time.Duration(3600+rng.Intn(7200)) * time.Second}
	}
	running := make([]*batch.Job, 64)
	for i := range running {
		running[i] = &batch.Job{ID: "r", Nodes: 1 + rng.Intn(16), Walltime: time.Duration(600+rng.Intn(7200)) * time.Second}
	}
	ns, _ := perOp(20_000, func(i int) { sunk += len(batch.EASY{}.Select(queue, 32, sim.Time(i), running)) })
	m["batch.easy_select_us_q256"] = ns / 1000

	// experiments: the heaviest single point of the paper's evaluation.
	def, err := experiments.Experiment(3)
	if err != nil {
		return err
	}
	var runs []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		if res := experiments.Run(experiments.RunSpec{Exp: def, NTasks: 2048, Rep: rep}); res.Err != "" {
			return fmt.Errorf("experiments probe: %s", res.Err)
		}
		runs = append(runs, ms(time.Since(t0)))
	}
	m["experiments.run_ms_n2048"] = median(runs)

	// backend.Local: one job of n units on a fresh shard.
	for _, p := range []struct {
		name string
		n    int
		reps int
	}{{"backend.local_us_per_unit_n8", 8, 40}, {"backend.local_us_per_unit_n2048", 2048, 1}} {
		var total time.Duration
		for rep := 0; rep < p.reps; rep++ {
			w, err := skeleton.Generate(skeleton.BagOfTasks(p.n, skeleton.UniformDuration()), int64(rep))
			if err != nil {
				return err
			}
			sink := &countSink{}
			l, err := backend.NewLocal(backend.Config{Seed: int64(rep + 1)}, sink)
			if err != nil {
				return err
			}
			ds, err := driveBackend(l, sink, []jobSpec{{w: w, cfg: aimes.JobConfig{StrategyConfig: def.StrategyConfig()}}})
			if err != nil {
				return err
			}
			total += ds.enact + ds.step
		}
		m[p.name] = us(total) / float64(p.reps*p.n)
	}
	return serverProbes(m)
}

type constModel struct{}

func (constModel) PredictedCompletion(k int, cost float64) float64 { return cost * float64(k+1) }

func netsimWave(n, reps int) (nsPerTransfer, eventsPerTransfer float64) {
	var fired uint64
	t0 := time.Now()
	for rep := 0; rep < reps; rep++ {
		eng := sim.NewSim()
		link := netsim.NewLink(eng, "wan", 1e9, 10*time.Millisecond)
		for i := 0; i < n; i++ {
			link.Start(int64(1+i%7)<<20, func() {})
		}
		eng.Run()
		fired += eng.Fired()
	}
	total := float64(n * reps)
	return float64(time.Since(t0).Nanoseconds()) / total, float64(fired) / total
}

// serverProbes times the server's handlers without a socket, through
// Server.Handler and a response recorder.
func serverProbes(m map[string]float64) error {
	st, err := serverStack(1, 1)
	if err != nil {
		return err
	}
	defer st.close()
	w, err := skeleton.Generate(skeleton.BagOfTasks(8, skeleton.UniformDuration()), 1)
	if err != nil {
		return err
	}
	var wl bytes.Buffer
	if err := w.WriteMiddlewareJSON(&wl); err != nil {
		return err
	}
	body, err := json.Marshal(&client.SubmitRequest{Workload: wl.Bytes(), Config: lateBackfill})
	if err != nil {
		return err
	}
	call := func(method, path string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+st.tokens[0])
		rr := httptest.NewRecorder()
		t0 := time.Now()
		st.handler.ServeHTTP(rr, req)
		return rr, time.Since(t0)
	}
	const n = 64
	var submit, get, scrape time.Duration
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		rr, d := call(http.MethodPost, "/v1/jobs", body)
		if rr.Code != http.StatusCreated {
			return fmt.Errorf("submit handler probe: status %d: %s", rr.Code, rr.Body)
		}
		var info client.JobInfo
		if err := json.Unmarshal(rr.Body.Bytes(), &info); err != nil {
			return err
		}
		submit += d
		ids = append(ids, info.ID)
	}
	for _, id := range ids {
		if rr, _ := call(http.MethodGet, "/v1/jobs/"+id+"?wait=30s", nil); rr.Code != http.StatusOK {
			return fmt.Errorf("wait handler probe: status %d", rr.Code)
		}
	}
	for _, id := range ids {
		rr, d := call(http.MethodGet, "/v1/jobs/"+id, nil)
		if rr.Code != http.StatusOK {
			return fmt.Errorf("get handler probe: status %d", rr.Code)
		}
		get += d
		_, d = call(http.MethodGet, "/metrics", nil)
		scrape += d
	}
	m["server.submit_handler_us"] = us(submit) / n
	m["server.get_handler_us"] = us(get) / n
	m["server.metrics_handler_us"] = us(scrape) / n
	return nil
}
