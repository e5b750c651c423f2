package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aimes"
	"aimes/client"
)

// countingTransport counts a Client's requests and keeps a copy of every
// response body it reads.
type countingTransport struct {
	base http.RoundTripper

	mu     sync.Mutex
	bodies []*bytes.Buffer // one per request, in order
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	buf := new(bytes.Buffer)
	c.mu.Lock()
	c.bodies = append(c.bodies, buf)
	c.mu.Unlock()
	resp, err := c.base.RoundTrip(r)
	if err == nil {
		resp.Body = &teeBody{ReadCloser: resp.Body, mu: &c.mu, copy: buf}
	}
	return resp, err
}

// requests is the number of requests made so far.
func (c *countingTransport) requests() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.bodies)
}

// body is what the client has read of request i's response.
func (c *countingTransport) body(i int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Clone(c.bodies[i].Bytes())
}

type teeBody struct {
	io.ReadCloser
	mu   *sync.Mutex
	copy *bytes.Buffer
}

func (b *teeBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.mu.Lock()
	b.copy.Write(p[:n])
	b.mu.Unlock()
	return n, err
}

// streamDaemon serves a daemon over env for tenants (token → tenant), its
// handler wrapped by wrap when that is not nil, and returns its URL.
func streamDaemon(t *testing.T, env *aimes.Environment, tenants map[string]Tenant, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	auth, err := NewAuth(tenants)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Env: env, Auth: auth})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	hs := httptest.NewServer(h)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		hs.Close()
	})
	return hs.URL
}

// countedClient is a Client of base for token whose requests tr counts.
func countedClient(base, token string) (*client.Client, *countingTransport) {
	tr := &countingTransport{base: &http.Transport{}}
	return client.New(base, token).WithHTTPClient(&http.Client{Transport: tr}), tr
}

// bag is an n-task bag of tasks lasting seconds each.
func bag(t *testing.T, n int, seconds float64, seed int64) *aimes.Workload {
	t.Helper()
	w, err := aimes.GenerateWorkload(aimes.AppSpec{
		Name:   "bag",
		Stages: []aimes.StageSpec{{Name: "main", Tasks: n, DurationS: aimes.ConstantSpec(seconds)}},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// readAll ranges over es to its end and returns its events and final
// snapshot, failing the test on a stream error.
func readAll(t *testing.T, es *client.EventStream) ([]client.Event, *client.JobInfo) {
	t.Helper()
	var events []client.Event
	for ev := range es.C {
		events = append(events, ev)
	}
	if err := es.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	return events, es.Final()
}

// TestStreamedSubmitContract is the contract of a submission answered with
// its job's event stream: Submit holds the stream for its job's Wait or
// Events, which then cost no request, and every other case takes the
// requests it took before, with the same answers.
func TestStreamedSubmitContract(t *testing.T) {
	opts := client.SubmitOptions{Config: lateBackfill}
	virtual := func(t *testing.T, wrap func(http.Handler) http.Handler) string {
		env, err := aimes.NewEnv(aimes.WithSeed(7), aimes.WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		return streamDaemon(t, env, map[string]Tenant{"tok": {Name: "alice"}}, wrap)
	}
	wallClock := func(t *testing.T, quota Quota, wrap func(http.Handler) http.Handler) string {
		env, err := aimes.NewEnv(aimes.WithRealTime(), aimes.WithSeed(7), aimes.WithSites(wallClockSite("left"), wallClockSite("right")))
		if err != nil {
			t.Fatal(err)
		}
		return streamDaemon(t, env, map[string]Tenant{"tok": {Name: "alice", Quota: quota}}, wrap)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	submit := func(t *testing.T, c *client.Client, w *aimes.Workload) *client.JobInfo {
		t.Helper()
		info, err := c.Submit(ctx, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	wait := func(t *testing.T, c *client.Client, id string, units int) *aimes.Report {
		t.Helper()
		r, err := c.Wait(ctx, id)
		if err != nil || r == nil || r.UnitsDone != units {
			t.Fatalf("Wait(%s): report %+v, %v; want %d units done", id, r, err, units)
		}
		return r
	}
	requests := func(t *testing.T, tr *countingTransport, want int, after string) {
		t.Helper()
		if got := tr.requests(); got != want {
			t.Fatalf("%d requests after %s, want %d", got, after, want)
		}
	}

	t.Run("one request per job", func(t *testing.T) {
		base := virtual(t, nil)
		c, tr := countedClient(base, "tok")
		a := submit(t, c, bag(t, 8, 60, 1))
		wait(t, c, a.ID, 8)
		requests(t, tr, 1, "Submit and Wait")

		b := submit(t, c, bag(t, 8, 60, 2))
		events, final := readAll(t, mustEvents(t, c, ctx, b.ID, 0))
		requests(t, tr, 2, "Submit and Events")
		if final == nil || final.State != "done" || final.Report.UnitsDone != 8 {
			t.Fatalf("the streamed job's final snapshot: %+v", final)
		}
		for i, ev := range events {
			if ev.Seq != int64(i+1) || ev.Job != b.ID {
				t.Fatalf("event %d: %+v, want Seq %d of job %s", i, ev, i+1, b.ID)
			}
		}

		// The submit's response: one "submitted" event, then, byte for byte,
		// what GET /v1/jobs/{id}/events sends for the finished job.
		streamed := tr.body(1)
		opening, rest, ok := bytes.Cut(streamed, []byte("\n\n"))
		if !ok || !bytes.HasPrefix(opening, []byte("event: submitted\ndata: {")) || !bytes.Contains(opening, []byte(`"id":"`+b.ID+`"`)) {
			t.Fatalf("the submit's response opens %q", opening)
		}
		replay, err := c.Events(ctx, b.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, replay)
		requests(t, tr, 3, "a replay")
		if got := tr.body(2); !bytes.Equal(rest, got) {
			t.Fatalf("after its submitted event the submit's stream differs from GET .../events:\n%q\n%q", rest, got)
		}
		if !bytes.Contains(rest, []byte("id: 1\nevent: job\n")) || !bytes.Contains(rest, []byte("event: done\n")) {
			t.Fatalf("the stream carries no id lines or no done event: %q", rest)
		}
	})

	t.Run("fallbacks", func(t *testing.T) {
		base := virtual(t, nil)
		c, tr := countedClient(base, "tok")
		a := submit(t, c, bag(t, 8, 60, 1))
		b := submit(t, c, bag(t, 8, 60, 2)) // closes a's stream
		ra := wait(t, c, a.ID, 8)
		requests(t, tr, 3, "Wait on the earlier of two submissions")
		events, final := readAll(t, mustEvents(t, c, ctx, a.ID, 0))
		requests(t, tr, 4, "Events on it")
		if len(events) == 0 || events[0].Seq != 1 || events[len(events)-1].Seq != int64(len(events)) || events[0].Job != a.ID {
			t.Fatalf("fallback Events on %s: %d events, first %+v", a.ID, len(events), events[0])
		}
		if final == nil || !reflect.DeepEqual(final.Report, ra) {
			t.Fatalf("fallback Events' final report differs from Wait's:\n%+v\n%+v", final, ra)
		}
		wait(t, c, b.ID, 8)
		requests(t, tr, 4, "Wait on the latest submission")

		// Events from a later Seq asks for itself and leaves the stream to Wait.
		d := submit(t, c, bag(t, 8, 60, 3))
		events, _ = readAll(t, mustEvents(t, c, ctx, d.ID, 2))
		requests(t, tr, 6, "Events from Seq 2")
		if len(events) == 0 || events[0].Seq != 2 {
			t.Fatalf("Events from Seq 2 starts at %+v", events)
		}
		// Another Client asks for itself, and leaves the stream to its own.
		other, otherTr := countedClient(base, "tok")
		wait(t, other, d.ID, 8)
		requests(t, otherTr, 1, "another Client's Wait")
		wait(t, c, d.ID, 8)
		requests(t, tr, 6, "Wait on the held stream")
	})

	// One Client shared by several goroutines: each Submit closes the stream
	// of the one before it, whoever made that, and every job still reports.
	t.Run("shared client", func(t *testing.T) {
		c, _ := countedClient(virtual(t, nil), "tok")
		w := bag(t, 4, 60, 1)
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 5 {
					info, err := c.Submit(ctx, w, opts)
					if err != nil {
						t.Error(err)
						return
					}
					if i%2 == 0 {
						if r, err := c.Wait(ctx, info.ID); err != nil || r == nil || r.UnitsDone != 4 {
							t.Errorf("Wait(%s): %+v, %v", info.ID, r, err)
						}
						continue
					}
					es, err := c.Events(ctx, info.ID, 0)
					if err != nil {
						t.Error(err)
						return
					}
					n := int64(0)
					for ev := range es.C {
						if n++; ev.Seq != n || ev.Job != info.ID {
							t.Errorf("job %s: event %+v, want Seq %d", info.ID, ev, n)
						}
					}
					if fin := es.Final(); fin == nil || fin.State != "done" || es.Err() != nil {
						t.Errorf("job %s: final %+v, %v", info.ID, fin, es.Err())
					}
				}
			}()
		}
		wg.Wait()
	})

	t.Run("broken stream", func(t *testing.T) {
		// The stream ends after its submitted event: Wait long-polls.
		base := virtual(t, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost {
					w = &breakingWriter{ResponseWriter: w}
				}
				h.ServeHTTP(w, r)
			})
		})
		c, tr := countedClient(base, "tok")
		a := submit(t, c, bag(t, 8, 60, 1))
		wait(t, c, a.ID, 8)
		requests(t, tr, 2, "Wait on a broken stream")
	})

	t.Run("plain JSON daemon", func(t *testing.T) {
		base := virtual(t, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				r.Header.Del("Accept")
				h.ServeHTTP(w, r)
			})
		})
		c, tr := countedClient(base, "tok")
		a := submit(t, c, bag(t, 8, 60, 1))
		wait(t, c, a.ID, 8)
		requests(t, tr, 2, "Submit and Wait")
		b := submit(t, c, bag(t, 8, 60, 2))
		if _, final := readAll(t, mustEvents(t, c, ctx, b.ID, 0)); final == nil || final.State != "done" {
			t.Fatalf("final snapshot %+v", final)
		}
		requests(t, tr, 4, "Submit and Events")
	})

	t.Run("contexts", func(t *testing.T) {
		// posts counts the submissions whose handler, the stream, still runs.
		var posts atomic.Int64
		base := wallClock(t, Quota{}, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost {
					posts.Add(1)
					defer posts.Add(-1)
				}
				h.ServeHTTP(w, r)
			})
		})
		c, tr := countedClient(base, "tok")
		// Canceling Submit's context once it returned leaves the stream.
		sctx, scancel := context.WithCancel(ctx)
		a, err := c.Submit(sctx, bag(t, 1, 0.2, 1), opts)
		if err != nil {
			t.Fatal(err)
		}
		scancel()
		wait(t, c, a.ID, 1)
		requests(t, tr, 1, "Wait after Submit's context ended")

		// Canceling the claimer's context ends the stream.
		long := submit(t, c, bag(t, 1, 3600, 2))
		wctx, wcancel := context.WithTimeout(ctx, 100*time.Millisecond)
		defer wcancel()
		if _, err := c.Wait(wctx, long.ID); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Wait past its deadline: %v", err)
		}
		requests(t, tr, 2, "a Wait that timed out on the held stream")
		long2 := submit(t, c, bag(t, 1, 3600, 3))
		ectx, ecancel := context.WithCancel(ctx)
		es := mustEvents(t, c, ectx, long2.ID, 0)
		requests(t, tr, 3, "Events on the held stream")
		time.AfterFunc(50*time.Millisecond, ecancel)
		for range es.C {
		}
		if es.Final() != nil {
			t.Fatalf("a canceled stream reports a final snapshot %+v", es.Final())
		}
		for _, id := range []string{long.ID, long2.ID} {
			if _, err := c.Cancel(ctx, id, "test over"); err != nil {
				t.Fatal(err)
			}
			if r, err := c.Wait(ctx, id); err != nil || r == nil || r.UnitsCanceled != 1 {
				t.Fatalf("Wait on canceled %s: %+v, %v", id, r, err)
			}
		}
		requests(t, tr, 7, "two Cancels and two long-polled Waits")

		// A caller's context that cannot end leaves the stream its request's
		// own: Close on a claimed stream still ends the request, and the
		// daemon's stream returns, with the job still running.
		bg := context.Background()
		long3, err := c.Submit(bg, bag(t, 1, 3600, 4), opts)
		if err != nil {
			t.Fatal(err)
		}
		es = mustEvents(t, c, bg, long3.ID, 0)
		requests(t, tr, 8, "Events on the held stream under context.Background()")
		es.Close()
		for range es.C {
		}
		if es.Final() != nil || es.Err() != nil {
			t.Fatalf("a closed stream reports final %+v, error %v", es.Final(), es.Err())
		}
		for deadline := time.Now().Add(10 * time.Second); posts.Load() > 0; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d submissions still stream after their claimed streams were closed or canceled", posts.Load())
			}
		}
		// And a Wait on a held stream still completes.
		short, err := c.Submit(bg, bag(t, 1, 0.2, 5), opts)
		if err != nil {
			t.Fatal(err)
		}
		if r, err := c.Wait(bg, short.ID); err != nil || r == nil || r.UnitsDone != 1 {
			t.Fatalf("Wait under context.Background(): %+v, %v", r, err)
		}
		if _, err := c.Cancel(ctx, long3.ID, "test over"); err != nil {
			t.Fatal(err)
		}
		requests(t, tr, 10, "a Submit and Wait on its held stream, and a Cancel")
	})

	t.Run("quota", func(t *testing.T) {
		base := wallClock(t, Quota{MaxInFlight: 1}, nil)
		c, tr := countedClient(base, "tok")
		long := submit(t, c, bag(t, 1, 3600, 1))
		if _, err := c.Submit(ctx, bag(t, 1, 1, 2), opts); !client.IsQuotaError(err) {
			t.Fatalf("a submission over quota: %v, want a 429", err)
		}
		if _, err := c.Cancel(ctx, long.ID, "test over"); err != nil {
			t.Fatal(err)
		}
		// The refused submission held no stream: Wait reads long's.
		if r, err := c.Wait(ctx, long.ID); err != nil || r == nil || r.UnitsCanceled != 1 {
			t.Fatalf("Wait on the canceled job: %+v, %v", r, err)
		}
		requests(t, tr, 3, "Submit, a refused Submit, Cancel and Wait")
	})
}

func mustEvents(t *testing.T, c *client.Client, ctx context.Context, id string, from int64) *client.EventStream {
	t.Helper()
	es, err := c.Events(ctx, id, from)
	if err != nil {
		t.Fatal(err)
	}
	return es
}

// breakingWriter lets a stream's submitted event through, and nothing after
// it, as a connection that broke right after it would.
type breakingWriter struct {
	http.ResponseWriter
	broken bool
}

func (w *breakingWriter) Write(b []byte) (int, error) {
	if w.broken {
		return 0, errors.New("broken")
	}
	w.broken = true
	if i := bytes.Index(b, []byte("\n\n")); i >= 0 {
		b = b[:i+2]
	}
	w.ResponseWriter.Write(b)
	return len(b), nil
}

func (w *breakingWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }
