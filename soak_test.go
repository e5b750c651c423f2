package aimes_test

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aimes"
	"aimes/client"
	"aimes/internal/backend"
	"aimes/internal/server"
)

// Soak sizes: jobs per phase, the size of every ninth job, and the trace
// window the live-heap bound is built on: 2^20 log entries of 40 bytes, what
// one shard's window held before an entry became 32 bytes
// (TestLogEntryFootprint). The bound, 1.3 × two windows, does not follow the
// entry down: the ~18 MB the daemon keeps beyond the windows — the
// registry's jobs, their reports, and the unit ids the windows' records are
// coded against — does not shrink with it (with 24-byte entries the daemon
// kept 67–68 MB, over the 65.4 MB such a bound would have been).
const (
	soakJobs        = 8000
	soakBigTasks    = 2048
	soakRetain      = 4096 // aimes-server's default -retain
	soakWindowBytes = 1 << 20 * 40
)

// BenchmarkSoak runs the daemon the way aimes-server does — server.New on a
// loopback http.Server — under sustained load, once on two local shards and
// once on two TCP worker shards served in process. Each phase sends
// soakJobs jobs of 8–16 tasks, every ninth one of 2 048, through one
// long-polling client and one SSE client, while a third subscriber follows
// one 2 048-task job over a small receive buffer and stops reading partway
// through until the traffic is over. It then asserts that the daemon
// settles rather than accumulates:
//   - the live heap after a GC is at most 1.3 × the two shards' trace
//     windows, the one memory the daemon keeps by design beyond its
//     registry's soakRetain jobs;
//   - the goroutine count is back to its baseline;
//   - aimes_trace_dropped_total has risen, and only on a full window;
//   - the stalled subscriber's delivered events plus Dropped() equal its
//     job's final Seq;
//   - aimes_registry_jobs is exactly soakRetain;
//   - the last decile of completions runs at least half as fast as the first.
//
// It takes a minute or two: run it with make soak, not go test ./....
// The stalled subscriber connects from stallingIP, so it needs a host that
// answers on all of 127/8, as Linux does.
func BenchmarkSoak(b *testing.B) {
	if ln, err := net.Listen("tcp", net.JoinHostPort(stallingIP.String(), "0")); err != nil {
		b.Fatalf("the stalled subscriber connects from %v, which this host does not answer on (Linux answers on all of 127/8): %v", stallingIP, err)
	} else {
		ln.Close()
	}
	small := make([]*aimes.Workload, 16)
	for i := range small {
		small[i] = soakWorkload(b, 8+i%9, int64(i))
	}
	big := []*aimes.Workload{soakWorkload(b, soakBigTasks, 100), soakWorkload(b, soakBigTasks, 101)}
	pick := func(i int) *aimes.Workload {
		if i%9 == 8 {
			return big[(i/9)%len(big)]
		}
		return small[i%len(small)]
	}
	b.Run("local", func(b *testing.B) {
		soakPhase(b, pick, aimes.WithShards(2))
	})
	b.Run("tcp", func(b *testing.B) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		const secret = "soak-secret"
		go backend.ServeListener(ln, backend.ServeConfig{Secret: secret})
		soakPhase(b, pick, tcpWorkers(2, ln.Addr().String(), secret)...)
	})
}

func soakWorkload(b *testing.B, tasks int, seed int64) *aimes.Workload {
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(tasks, aimes.UniformDuration()), seed)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// soakPhase is one phase of BenchmarkSoak on an environment built from opts.
func soakPhase(b *testing.B, pick func(int) *aimes.Workload, opts ...aimes.Option) {
	env, err := aimes.NewEnv(append(opts, aimes.WithSeed(7741))...)
	if err != nil {
		b.Fatal(err)
	}
	auth, err := server.NewAuth(map[string]server.Tenant{"tok": {Name: "soak"}})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{Env: env, Auth: auth})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(stallingListener{ln})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Shutdown(ctx)
		hs.Shutdown(ctx)
	}()
	url := "http://" + ln.Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Minute)
	defer cancel()

	var transports []*http.Transport
	newClient := func(dial func(context.Context, string, string) (net.Conn, error)) *client.Client {
		tr := &http.Transport{DialContext: dial}
		transports = append(transports, tr)
		return client.New(url, "tok").WithHTTPClient(&http.Client{Transport: tr})
	}
	idle := func() {
		for _, tr := range transports {
			tr.CloseIdleConnections()
		}
	}
	poller, follower := newClient(nil), newClient(nil)
	stalled := newClient(func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := (&net.Dialer{LocalAddr: &net.TCPAddr{IP: stallingIP}}).DialContext(ctx, network, addr)
		if err == nil {
			err = conn.(*net.TCPConn).SetReadBuffer(128 << 10)
		}
		return conn, err
	})
	if _, err := poller.Metrics(ctx); err != nil { // the listener and a connection exist before the baseline
		b.Fatal(err)
	}
	idle()
	base := quietGoroutines()

	opt := client.SubmitOptions{Config: aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}}
	var (
		next      atomic.Int64
		mu        sync.Mutex
		completed []time.Time
	)
	finish := func() {
		mu.Lock()
		completed = append(completed, time.Now())
		mu.Unlock()
	}
	// The follower hands its first 2 048-task job to the stalled subscriber,
	// then that job's last Seq, which it reads promptly and whole.
	stallID, stallFinal := make(chan string, 1), make(chan int64, 1)
	trafficDone := make(chan struct{})
	errs := make(chan error, 8) // room for every error the phase's goroutines can send: no send blocks
	var traffic, all sync.WaitGroup
	run := func(follow bool) {
		defer traffic.Done()
		handed := false
		for {
			i := int(next.Add(1)) - 1
			if i >= soakJobs {
				return
			}
			w, c := pick(i), poller
			if follow {
				c = follower
			}
			info, err := c.Submit(ctx, w, opt)
			if err != nil {
				errs <- fmt.Errorf("job %d: %w", i, err)
				return
			}
			if !follow {
				if _, err := poller.Wait(ctx, info.ID); err != nil {
					errs <- fmt.Errorf("job %d: %w", i, err)
					return
				}
				finish()
				continue
			}
			handOff := !handed && w.TotalTasks() == soakBigTasks
			if handOff {
				handed = true
				stallID <- info.ID
			}
			es, err := follower.Events(ctx, info.ID, 0)
			if err != nil {
				errs <- fmt.Errorf("job %d: %w", i, err)
				return
			}
			var last int64
			for ev := range es.C {
				last = ev.Seq
			}
			if fin := es.Final(); fin == nil || fin.State != "done" || es.Dropped() != 0 {
				errs <- fmt.Errorf("job %d: stream ended at Seq %d with final %+v, %d dropped (%v)", i, last, fin, es.Dropped(), es.Err())
				return
			}
			finish()
			if handOff {
				stallFinal <- last
			}
		}
	}
	var stall struct{ delivered, dropped, final int64 }
	all.Add(1)
	go func() {
		defer all.Done()
		var id string
		select {
		case id = <-stallID:
		case <-trafficDone:
			errs <- fmt.Errorf("stalled subscriber: the follower handed over no %d-task job", soakBigTasks)
			return
		}
		es, err := stalled.Events(ctx, id, 0)
		if err != nil {
			errs <- fmt.Errorf("stalled subscriber: %w", err)
			return
		}
		for range es.C {
			if stall.delivered++; stall.delivered == 256 {
				<-trafficDone
			}
		}
		stall.dropped = es.Dropped()
		select {
		case stall.final = <-stallFinal: // sent before the traffic ended, or never
		default:
			errs <- fmt.Errorf("stalled subscriber: the follower never read job %s to its end", id)
		}
		if fin := es.Final(); fin == nil || fin.State != "done" {
			errs <- fmt.Errorf("stalled subscriber: final %+v (%v)", fin, es.Err())
		}
	}()

	// The sampler reads /metrics as the phase runs: a shard may have
	// dropped records only once its window is full.
	var samples []map[string]float64
	sampling := make(chan struct{})
	all.Add(1)
	go func() {
		defer all.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-sampling:
				return
			case <-tick.C:
			}
			m, err := soakMetrics(ctx, poller)
			if err != nil {
				errs <- err
				return
			}
			samples = append(samples, m)
		}
	}()

	start := time.Now()
	traffic.Add(2)
	go run(false)
	go run(true)
	traffic.Wait()
	elapsed := time.Since(start)
	close(trafficDone)
	close(sampling)
	all.Wait()
	close(errs)
	for err := range errs {
		b.Error(err)
	}
	if b.Failed() {
		return
	}

	end, err := soakMetrics(ctx, poller)
	if err != nil {
		b.Fatal(err)
	}
	idle()
	goroutines := settleGoroutines(base)
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	slices.SortFunc(completed, func(x, y time.Time) int { return x.Compare(y) })
	decile := func(k int) float64 {
		from, to := start, completed[(k+1)*len(completed)/10-1]
		if k > 0 {
			from = completed[k*len(completed)/10-1]
		}
		return float64(len(completed)/10) / to.Sub(from).Seconds()
	}
	first, last := decile(0), decile(9)
	heapMB, windowsMB := float64(ms.HeapAlloc)/1e6, float64(2*soakWindowBytes)/1e6
	b.ReportMetric(heapMB, "live-heap-MB")
	b.ReportMetric(float64(soakJobs)/elapsed.Seconds(), "jobs/s")
	b.ReportMetric(first, "first-decile-jobs/s")
	b.ReportMetric(last, "last-decile-jobs/s")
	b.Logf("%d jobs in %.1f s; live heap %.1f MB (windows %.1f MB); goroutines %d (baseline %d); jobs/s first decile %.0f, last %.0f; trace dropped %.0f; stalled subscriber %d delivered + %d dropped of %d; registry %.0f jobs",
		soakJobs, elapsed.Seconds(), heapMB, windowsMB, goroutines, base, first, last,
		end["aimes_trace_dropped_total"], stall.delivered, stall.dropped, stall.final, end["aimes_registry_jobs"])

	if heapMB > 1.3*windowsMB {
		b.Errorf("live heap %.1f MB after %d jobs, want at most 1.3 × the shards' trace windows (%.1f MB)", heapMB, soakJobs, 1.3*windowsMB)
	}
	if goroutines > base {
		b.Errorf("%d goroutines after the traffic, baseline %d", goroutines, base)
	}
	if end["aimes_trace_dropped_total"] == 0 {
		b.Error("aimes_trace_dropped_total stayed 0: the soak never filled a trace window")
	}
	for _, m := range samples {
		for sh := range 2 {
			label := fmt.Sprintf(`{shard="%d"}`, sh)
			if m["aimes_trace_dropped_total"+label] > 0 && m["aimes_trace_retained_records"+label] < 1<<20-1024 {
				b.Errorf("shard %d dropped records with %.0f retained, short of its window", sh, m["aimes_trace_retained_records"+label])
			}
		}
	}
	if stall.delivered+stall.dropped != stall.final {
		b.Errorf("stalled subscriber: %d delivered + %d dropped, want its job's final Seq %d", stall.delivered, stall.dropped, stall.final)
	}
	if end["aimes_registry_jobs"] != soakRetain {
		b.Errorf("aimes_registry_jobs %.0f, want the retention bound %d", end["aimes_registry_jobs"], soakRetain)
	}
	if last < first/2 {
		b.Errorf("last decile %.0f jobs/s, first %.0f: throughput decays", last, first)
	}
}

// stallingIP is the stalled subscriber's source address. Its connections get
// fixed socket buffers at both ends, so the daemon's write to it blocks a
// few hundred kilobytes after it stops reading — not after the megabytes of
// a loopback socket's autotuned buffers, which would hold its whole job. (Not
// much smaller: under a loopback segment's 64 KB the receiver stops
// announcing its window, and the sender waits out backed-off probes.)
var stallingIP = net.IPv4(127, 0, 0, 2)

// stallingListener is the daemon's listener, shrinking the send buffer of
// connections from stallingIP.
type stallingListener struct{ net.Listener }

func (l stallingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil && conn.RemoteAddr().(*net.TCPAddr).IP.Equal(stallingIP) {
		err = conn.(*net.TCPConn).SetWriteBuffer(128 << 10)
	}
	return conn, err
}

// soakMetrics scrapes /metrics into sample → value: every labelled sample
// under its full name, and a shard-labelled one also summed under its bare
// name.
func soakMetrics(ctx context.Context, c *client.Client) (map[string]float64, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		name, value := line[:cut], line[cut+1:]
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %v", sc.Text(), err)
		}
		out[name] = v
		if bare, labels, ok := strings.Cut(name, "{"); ok && strings.HasPrefix(labels, "shard=") {
			out[bare] += v
		}
	}
	return out, sc.Err()
}

// quietGoroutines waits for the goroutine count to hold still for a tenth of
// a second and returns it: the baseline a phase is measured against.
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

// settleGoroutines polls until the goroutine count is at most limit and
// returns the last count: connection goroutines unwind a moment after the
// work that started them.
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
