package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"aimes"
	"aimes/client"
	"aimes/internal/backend"
	"aimes/internal/experiments"
	"aimes/internal/server"
	"aimes/internal/skeleton"
)

// jobSpec is one generated job: the program under test sees only these.
type jobSpec struct {
	w   *aimes.Workload
	cfg aimes.JobConfig
	sse bool // over HTTP: follow the job's event stream instead of long-polling
}

// epochInput is one epoch's jobs, already partitioned per client. Each
// client works through its own list, so per-shard submission order — and on
// pinned workloads every simulated result — does not depend on host timing.
type epochInput struct {
	seed    int64
	clients [][]jobSpec
}

func (in epochInput) jobs() int {
	n := 0
	for _, c := range in.clients {
		n += len(c)
	}
	return n
}

// stack is one epoch's freshly built system under test.
type stack struct {
	env     *aimes.Environment
	base    string // server URL, when the stack has a server
	handler http.Handler
	tokens  []string // one bearer token per tenant
	close   func()
}

// driveFunc submits one epoch's jobs and waits for every report. Outcomes
// come back in a fixed slot order: client by client, list order.
type driveFunc func(*stack, epochInput, *tracer) []outcome

type workload struct {
	name, why string
	// pinned: every job is pinned to its client's shard, so each epoch
	// slot's report must repeat bit for bit.
	pinned   bool
	epochs   int // per round
	generate func(seed int64) (epochInput, error)
	open     func(seed int64) (*stack, error)
	drive    driveFunc
	// overHTTP: drive goes through the server, so bench holds no Job handle.
	overHTTP bool
}

var workloads = []*workload{
	{
		name: "paper-matrix",
		why: "Table I experiments 1-4 x sizes 8..2048, one job at a time on one local shard: ~450 units/job, " +
			"so sim, pilot, batch, netsim, trace and core do the work; p99 is the 2048-task cell.",
		pinned: true, epochs: 3,
		generate: genPaperMatrix, open: openLocal(1, false),
		drive: closedLoop,
	},
	{
		name: "tenants-burst",
		why: "Open-loop burst of 400 small jobs from 4 tenants (least-loaded, predictive, one skewed) on 2 stealing shards: " +
			"queue wait dominates, so admission, shard, model and stealing decide latency.",
		epochs:   5,
		generate: genTenantsBurst, open: openLocal(2, true),
		drive: burst,
	},
	{
		name: "fleet-mixed",
		why: "2 worker shards over the binary codec (stdio child + TCP host), sizes 8/64/512 in a 5:4:1 mix: " +
			"the only workload with backend codec, session, transport and trace wire encoding on the path.",
		pinned: true, epochs: 3,
		generate: genFleetMixed, open: openFleet,
		drive: closedLoop,
	},
	{
		name: "service-stream",
		why: "client to aimes-server to 2 local shards, tiny jobs over long-poll and SSE: handlers, registry, SSE fan-out, " +
			"JSON and client dominate, and every trace record is read by a subscriber, not only written.",
		pinned: true, epochs: 3,
		generate: genServiceStream, open: openServer(2),
		drive: httpStream, overHTTP: true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

var lateBackfill = aimes.StrategyConfig{
	Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2,
}

func bag(n int, duration skeleton.Spec, rng *rand.Rand) (*aimes.Workload, error) {
	return skeleton.Generate(skeleton.BagOfTasks(n, duration), rng.Int63())
}

func genPaperMatrix(seed int64) (epochInput, error) {
	rng := rand.New(rand.NewSource(seed))
	var list []jobSpec
	for _, def := range experiments.TableI {
		for _, n := range experiments.Sizes {
			w, err := bag(n, def.Duration.Spec(), rng)
			if err != nil {
				return epochInput{}, err
			}
			list = append(list, jobSpec{w: w, cfg: aimes.JobConfig{StrategyConfig: def.StrategyConfig()}})
		}
	}
	return epochInput{seed: seed, clients: [][]jobSpec{list}}, nil
}

// genTenantsBurst builds 4 tenants x 100 jobs. Every tenant has the same
// multiset of sizes, 16..64 tasks, in a seeded order, so the work per epoch
// does not depend on the seed; durations are Gaussian, so job cost does.
func genTenantsBurst(seed int64) (epochInput, error) {
	const perTenant = 100
	rng := rand.New(rand.NewSource(seed))
	tenants := []aimes.JobConfig{
		{StrategyConfig: lateBackfill, Placement: aimes.PlaceLeastLoaded},
		{StrategyConfig: lateBackfill, Placement: aimes.PlaceLeastLoaded},
		{StrategyConfig: lateBackfill, Placement: aimes.PlacePredictive},
		// The skewed tenant: everything lands on shard 0 unless stolen.
		{StrategyConfig: lateBackfill, Placement: aimes.PlacePinned, Shard: 0, Migrate: aimes.MigrateAllow},
	}
	lists := make([][]jobSpec, len(tenants))
	for t, cfg := range tenants {
		sizes := make([]int, perTenant)
		for i := range sizes {
			sizes[i] = 16 + i*48/(perTenant-1)
		}
		rng.Shuffle(len(sizes), func(a, b int) { sizes[a], sizes[b] = sizes[b], sizes[a] })
		for _, n := range sizes {
			w, err := bag(n, skeleton.GaussianDuration(), rng)
			if err != nil {
				return epochInput{}, err
			}
			lists[t] = append(lists[t], jobSpec{w: w, cfg: cfg})
		}
	}
	// Two clients, two tenants each, interleaved.
	clients := make([][]jobSpec, 2)
	for i := 0; i < perTenant; i++ {
		clients[0] = append(clients[0], lists[0][i], lists[2][i])
		clients[1] = append(clients[1], lists[1][i], lists[3][i])
	}
	return epochInput{seed: seed, clients: clients}, nil
}

// genPinned builds one list per client, client c pinned to shard c, with
// the given sizes in a seeded order.
func genPinned(seed int64, nClients int, sizes []int, sseClient int) (epochInput, error) {
	rng := rand.New(rand.NewSource(seed))
	clients := make([][]jobSpec, nClients)
	for c := range clients {
		order := append([]int(nil), sizes...)
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, n := range order {
			w, err := bag(n, skeleton.UniformDuration(), rng)
			if err != nil {
				return epochInput{}, err
			}
			clients[c] = append(clients[c], jobSpec{
				w:   w,
				cfg: aimes.JobConfig{StrategyConfig: lateBackfill, Placement: aimes.PlacePinned, Shard: c},
				sse: c == sseClient,
			})
		}
	}
	return epochInput{seed: seed, clients: clients}, nil
}

// genFleetMixed: 100 jobs per client, 8/64/512 tasks in a 5:4:1 mix — small
// jobs are round-trip-bound, large ones byte-bound.
func genFleetMixed(seed int64) (epochInput, error) {
	var sizes []int
	for i := 0; i < 100; i++ {
		switch {
		case i < 50:
			sizes = append(sizes, 8)
		case i < 90:
			sizes = append(sizes, 64)
		default:
			sizes = append(sizes, 512)
		}
	}
	return genPinned(seed, 2, sizes, -1)
}

// genServiceStream: 300 jobs per client of 8..16 tasks; client 0
// long-polls, client 1 follows the SSE stream.
func genServiceStream(seed int64) (epochInput, error) {
	sizes := make([]int, 300)
	for i := range sizes {
		sizes[i] = 8 + i%9
	}
	return genPinned(seed, 2, sizes, 1)
}

func openLocal(shards int, stealing bool) func(int64) (*stack, error) {
	return func(seed int64) (*stack, error) {
		opts := []aimes.Option{aimes.WithSeed(seed), aimes.WithShards(shards)}
		if stealing {
			opts = append(opts, aimes.WithWorkStealing())
		}
		env, err := aimes.NewEnv(opts...)
		if err != nil {
			return nil, err
		}
		return &stack{env: env, close: func() { env.Close() }}, nil
	}
}

// tcpHostEnv, when set, turns this binary into a TCP worker host (see
// serveIfTCPHost).
const tcpHostEnv = "AIMES_BENCH_TCP_HOST"

const fleetSecret = "bench-fleet-secret"

// serveIfTCPHost makes the bench binary its own TCP worker host, so the
// fleet workload needs no prebuilt cmd/aimes-worker. The host prints its
// address and serves until its stdin closes — when the parent closes the
// stack, or dies.
func serveIfTCPHost() {
	if os.Getenv(tcpHostEnv) == "" {
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench tcp host:", err)
		os.Exit(1)
	}
	fmt.Println(ln.Addr())
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	fmt.Fprintln(os.Stderr, "bench tcp host:", backend.ServeListener(ln, backend.ServeConfig{Secret: fleetSecret}))
	os.Exit(1)
}

func startTCPHost(self string) (addr string, stop func(), err error) {
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), tcpHostEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return "", nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	stop = func() {
		stdin.Close()
		_ = cmd.Wait() // the host exits 0 on stdin EOF; nothing to act on otherwise
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		stop()
		return "", nil, fmt.Errorf("reading the TCP worker host's address: %w", err)
	}
	return strings.TrimSpace(line), stop, nil
}

// openFleet builds a 2-shard worker environment on the binary codec: shard
// 0 on a stdio child, shard 1 on a TCP host, both this binary.
func openFleet(seed int64) (*stack, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	addr, stop, err := startTCPHost(self)
	if err != nil {
		return nil, err
	}
	env, err := aimes.NewEnv(aimes.WithSeed(seed), aimes.WithShards(2),
		aimes.WithWireCodec(aimes.CodecBinary),
		aimes.WithWorkerPool(aimes.WorkerPool{
			Endpoints: []aimes.WorkerEndpoint{
				{Name: "stdio", Command: []string{self}},
				{Name: "tcp", Addr: addr},
			},
			Secret: fleetSecret,
		}))
	if err != nil {
		stop()
		return nil, err
	}
	return &stack{env: env, close: func() {
		env.Close()
		stop()
	}}, nil
}

// openServer builds client -> server -> local shards on a loopback listener,
// with two bearer-token tenants whose quotas never bind.
func openServer(shards int) func(int64) (*stack, error) {
	return func(seed int64) (*stack, error) { return serverStack(seed, shards) }
}

func serverStack(seed int64, shards int) (*stack, error) {
	env, err := aimes.NewEnv(aimes.WithSeed(seed), aimes.WithShards(shards))
	if err != nil {
		return nil, err
	}
	quota := server.Quota{MaxInFlight: 1000, MaxQueued: 1000}
	tokens := []string{"bench-token-0", "bench-token-1"}
	auth, err := server.NewAuth(map[string]server.Tenant{
		tokens[0]: {Name: "tenant-0", Quota: quota},
		tokens[1]: {Name: "tenant-1", Quota: quota},
	})
	if err != nil {
		env.Close()
		return nil, err
	}
	srv, err := server.New(server.Config{Env: env, Auth: auth})
	if err != nil {
		env.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		_ = hs.Serve(ln) // returns ErrServerClosed on Close
		close(served)
	}()
	st := &stack{env: env, base: "http://" + ln.Addr().String(), handler: srv.Handler(), tokens: tokens}
	st.close = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // drains (nothing is live by now) and closes env
		hs.Close()
		<-served
	}
	return st, nil
}

// perClient runs one goroutine per client over its own job list and its own
// slice of the outcomes, inside an "epoch" span, and waits for all of them.
func perClient(in epochInput, tr *tracer, client func(c int, list []jobSpec, outs []outcome, root int)) []outcome {
	outs := make([]outcome, in.jobs())
	root := tr.begin("epoch", -1, 0)
	var wg sync.WaitGroup
	off := 0
	for c, list := range in.clients {
		wg.Add(1)
		go func(outs []outcome) {
			defer wg.Done()
			client(c, list, outs, root)
		}(outs[off : off+len(list)])
		off += len(list)
	}
	wg.Wait()
	tr.end(root)
	return outs
}

// closedLoop: each client submits its next job only after the previous
// report is in hand.
func closedLoop(st *stack, in epochInput, tr *tracer) []outcome {
	return perClient(in, tr, func(_ int, list []jobSpec, outs []outcome, root int) {
		var watchers sync.WaitGroup
		for i, js := range list {
			id := tr.newJob()
			t0 := time.Now()
			jobSpan := tr.beginAt("job", root, id, t0)
			if j := submit(st.env, js, tr, jobSpan, id, &watchers); j != nil {
				outs[i] = await(j, js, t0, tr, jobSpan, id)
			}
			tr.end(jobSpan)
		}
		watchers.Wait()
	})
}

// burst is the open loop: every job of the epoch is due at its start. Each
// client submits its whole list at once, then collects the reports in
// order; latency is timed from the due instant.
func burst(st *stack, in epochInput, tr *tracer) []outcome {
	due := time.Now()
	return perClient(in, tr, func(_ int, list []jobSpec, outs []outcome, root int) {
		var watchers sync.WaitGroup
		jobs := make([]*aimes.Job, len(list))
		ids := make([]int, len(list))
		spans := make([]int, len(list))
		for i, js := range list {
			ids[i] = tr.newJob()
			spans[i] = tr.beginAt("job", root, ids[i], due)
			jobs[i] = submit(st.env, js, tr, spans[i], ids[i], &watchers)
		}
		for i, j := range jobs {
			if j != nil {
				outs[i] = await(j, list[i], due, tr, spans[i], ids[i])
			}
			tr.end(spans[i])
		}
		watchers.Wait()
	})
}

// submit calls Environment.Submit. Traced, it also starts a reader on the
// job's event stream: the time from Submit's return to the first record is
// the job's wait behind the admission window.
func submit(env *aimes.Environment, js jobSpec, tr *tracer, parent, id int, watchers *sync.WaitGroup) *aimes.Job {
	s := tr.begin("aimes.Submit", parent, id)
	j, err := env.Submit(context.Background(), js.w, js.cfg)
	tr.end(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: submit:", err)
		return nil
	}
	if tr == nil {
		return j
	}
	returned := time.Now()
	watchers.Add(1)
	go func() {
		defer watchers.Done()
		n := 0
		for range j.Events() {
			if n == 0 {
				tr.end(tr.beginAt("aimes.admit_wait", parent, id, returned))
			}
			n++
		}
		tr.add("aimes.events", float64(n))
		tr.add("aimes.events_dropped", float64(j.EventsDropped()))
	}()
	return j
}

// await waits for the job's report and verifies it.
func await(j *aimes.Job, js jobSpec, due time.Time, tr *tracer, parent, id int) outcome {
	s := tr.begin("aimes.Wait", parent, id)
	r, err := j.Wait(context.Background())
	tr.end(s)
	o := outcome{latency: time.Since(due)}
	if err != nil || r == nil || j.State() != aimes.JobDone || r.UnitsDone != js.w.TotalTasks() {
		fmt.Fprintf(os.Stderr, "bench: job %d ended %v (%v)\n", j.ID(), j.State(), err)
		return o
	}
	o.ok, o.ttc = true, r.TTC
	if tr != nil {
		tr.add("jobs", 1)
		tr.add(fmt.Sprintf("jobs.shard%d", j.Shard()), 1)
		if p := j.PredictedTTC(); p > 0 && r.TTC > 0 {
			err := (p - r.TTC).Seconds() / r.TTC.Seconds()
			if err < 0 {
				err = -err
			}
			tr.add("model.rel_error", err)
			tr.add("model.scored", 1)
		}
	}
	return o
}

// httpStream is the closed loop over HTTP: each client holds its own
// connection pool and tenant token.
func httpStream(st *stack, in epochInput, tr *tracer) []outcome {
	return perClient(in, tr, func(c int, list []jobSpec, outs []outcome, root int) {
		base := &http.Transport{}
		defer base.CloseIdleConnections()
		var rt http.RoundTripper = base
		if tr != nil {
			rt = &countingTransport{base: base, tr: tr}
		}
		cl := client.New(st.base, st.tokens[c%len(st.tokens)]).WithHTTPClient(&http.Client{Transport: rt})
		for i, js := range list {
			id := tr.newJob()
			t0 := time.Now()
			jobSpan := tr.beginAt("job", root, id, t0)
			outs[i] = submitAndFollow(cl, js, t0, tr, jobSpan, id)
			tr.end(jobSpan)
		}
	})
}

func submitAndFollow(cl *client.Client, js jobSpec, t0 time.Time, tr *tracer, parent, id int) outcome {
	ctx := context.Background()
	s := tr.begin("client.Submit", parent, id)
	info, err := cl.Submit(ctx, js.w, client.SubmitOptions{
		Config: js.cfg.StrategyConfig, Placement: js.cfg.Placement, Shard: js.cfg.Shard, Migrate: js.cfg.Migrate,
	})
	tr.end(s)
	tr.add("server.attempts", 1)
	if err != nil {
		var se *client.StatusError
		if errors.As(err, &se) && (se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable) {
			tr.add("server.rejected", 1)
		}
		fmt.Fprintln(os.Stderr, "bench: http submit:", err)
		return outcome{latency: time.Since(t0)}
	}
	var r *aimes.Report
	if js.sse {
		s := tr.begin("client.Events", parent, id)
		es, err := cl.Events(ctx, info.ID, 0)
		if err == nil {
			n := 0
			for range es.C {
				n++
			}
			if fin := es.Final(); fin != nil && fin.State == "done" {
				r = fin.Report
			}
			tr.add("server.sse_events", float64(n))
			tr.add("server.sse_jobs", 1)
		}
		tr.end(s)
	} else {
		s := tr.begin("client.Wait", parent, id)
		r, err = cl.Wait(ctx, info.ID)
		tr.end(s)
	}
	o := outcome{latency: time.Since(t0)}
	if err != nil || r == nil || r.UnitsDone != js.w.TotalTasks() {
		fmt.Fprintf(os.Stderr, "bench: http job %s did not finish done (%v)\n", info.ID, err)
		return o
	}
	o.ok, o.ttc = true, r.TTC
	tr.add("jobs", 1)
	tr.add(fmt.Sprintf("jobs.shard%d", info.Shard), 1)
	return o
}

// countingTransport counts requests and body bytes, both ways, at the
// client's http.RoundTripper; SSE response bytes are also counted apart.
type countingTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.tr.add("client.requests", 1)
	if req.ContentLength > 0 {
		c.tr.add("client.http_bytes", float64(req.ContentLength))
	}
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, tr: c.tr, sse: strings.HasSuffix(req.URL.Path, "/events")}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	tr  *tracer
	sse bool
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.tr.add("client.http_bytes", float64(n))
	if b.sse {
		b.tr.add("server.sse_bytes", float64(n))
	}
	return n, err
}
