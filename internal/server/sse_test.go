package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aimes"
	"aimes/client"
	"aimes/internal/sim"
	"aimes/internal/trace"
)

// The SSE routes keep no events of their own: a stream is a cursor
// (aimes.TraceSub) over the shard's trace log. These tests restate, against
// that cursor, what the per-job replay ring and its subscriber channels used
// to promise a reconnecting or slow client. The log evicts whole segments of
// seg records, so the cases count in segments where the ring counted events.
const seg = 1024

// publish appends n records of one job to l.
func publish(l *trace.Log, s *trace.Stream, n int) {
	for i := 0; i < n; i++ {
		l.Append(s, "s0-j1", aimes.TraceRecord{Entity: "unit.x", State: "S"})
	}
}

// drain reads sub until it has nothing more, checking the sequence numbers
// are dense, and returns the first one and the count.
func drain(t *testing.T, sub *aimes.TraceSub) (first, n int64, done bool) {
	t.Helper()
	var buf [300]aimes.TraceRecord
	for {
		got, seq, d := sub.Read(buf[:])
		if got > 0 {
			if n == 0 {
				first = seq
			} else if seq != first+n {
				t.Fatalf("batch starts at seq %d, the previous one ended at %d", seq, first+n-1)
			}
			n += int64(got)
		}
		if d || got < len(buf) {
			return first, n, d
		}
	}
}

// TestFanoutAttach is the replay contract a reconnecting SSE client
// (?from=, Last-Event-ID) relies on: a cursor attached at from replays
// exactly the retained events with seq >= from, and counts the ones the log
// already evicted.
func TestFanoutAttach(t *testing.T) {
	cases := []struct {
		name       string
		window     int   // log retention, records
		published  int   // events logged before attaching
		from       int64 // attach point
		wantFirst  int64 // first replayed seq (when any)
		wantReplay int64 // number replayed
		wantMissed int64
	}{
		{"empty stream", 4 * seg, 0, 0, 0, 0, 0},
		{"from zero means the beginning", 4 * seg, 3, 0, 1, 3, 0},
		{"from one means the beginning", 4 * seg, 3, 1, 1, 3, 0},
		{"resume mid-ring", 4 * seg, 4 * seg, 2*seg + 1, 2*seg + 1, 2 * seg, 0},
		{"resume past the newest", 4 * seg, 4 * seg, 4*seg + 1, 0, 0, 0},
		{"ring exactly full", 4 * seg, 4 * seg, 1, 1, 4 * seg, 0},
		{"one eviction", 4 * seg, 4*seg + 1, 1, seg + 1, 3*seg + 1, seg},
		{"wrapped twice, from the beginning", 4 * seg, 10 * seg, 0, 6*seg + 1, 4 * seg, 6 * seg},
		{"wrapped, resume inside the evicted range", 4 * seg, 10 * seg, 5*seg + 1, 6*seg + 1, 4 * seg, seg},
		{"wrapped, resume at the oldest retained", 4 * seg, 10 * seg, 6*seg + 1, 6*seg + 1, 4 * seg, 0},
		{"wrapped, resume inside the ring", 4 * seg, 10 * seg, 8*seg + 1, 8*seg + 1, 2 * seg, 0},
		{"capacity below one is one", 0, seg + 3, 0, seg + 1, 3, seg},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, s := trace.NewLog(tc.window), new(trace.Stream)
			publish(l, s, tc.published)
			sub := s.Cursor(tc.from)
			defer sub.Close()
			first, n, done := drain(t, sub)
			if done {
				t.Fatal("a live stream reports done")
			}
			if n != tc.wantReplay || (n > 0 && first != tc.wantFirst) {
				t.Errorf("replayed %d events from seq %d, want %d from %d", n, first, tc.wantReplay, tc.wantFirst)
			}
			if got := sub.Dropped(); got != tc.wantMissed {
				t.Errorf("Dropped = %d, want %d", got, tc.wantMissed)
			}
			// The live tail continues where the replay ended.
			publish(l, s, 1)
			select {
			case <-sub.Ready():
			case <-time.After(5 * time.Second):
				t.Fatal("no wake-up after an append")
			}
			if first, n, _ := drain(t, sub); n != 1 || first != int64(tc.published)+1 {
				t.Errorf("live tail delivered %d events from seq %d, want seq %d", n, first, tc.published+1)
			}
		})
	}
}

// TestFanoutSlowSubscriber: a reader that stalls never blocks Append, learns
// exactly what it lost when it reads again, and a reader that keeps up is
// unaffected by it.
func TestFanoutSlowSubscriber(t *testing.T) {
	l, s := trace.NewLog(2*seg), new(trace.Stream)
	slow, fast := s.Cursor(0), s.Cursor(0)
	var fastGot int64
	for i := 0; i < 5; i++ {
		published := make(chan struct{})
		go func() {
			defer close(published)
			publish(l, s, seg)
		}()
		select {
		case <-published:
		case <-time.After(5 * time.Second):
			t.Fatal("Append blocked on a reader that does not read")
		}
		_, n, _ := drain(t, fast)
		fastGot += n
	}
	if fastGot != 5*seg || fast.Dropped() != 0 {
		t.Errorf("the reader that kept up got %d events and dropped %d, want %d and 0", fastGot, fast.Dropped(), 5*seg)
	}
	// What the stalled reader gets is the retained tail, in order, after
	// learning how much went before it.
	first, n, _ := drain(t, slow)
	if got := slow.Dropped(); got != 3*seg {
		t.Errorf("the stalled reader dropped %d, want %d (5 segments through a window of 2)", got, 3*seg)
	}
	if first != 3*seg+1 || n != 2*seg {
		t.Errorf("the stalled reader got %d events from seq %d, want %d from %d", n, first, 2*seg, 3*seg+1)
	}
	// A closed cursor is done once drained, and stops counting.
	slow.Close()
	slow.Close() // idempotent
	publish(l, s, 3*seg)
	if got := slow.Dropped(); got != 3*seg {
		t.Errorf("a closed cursor kept counting drops: %d", got)
	}
	if s.Missed() != 3*seg {
		t.Errorf("the job's EventsDropped is %d, want the stalled reader's %d", s.Missed(), 3*seg)
	}
}

// TestFanoutFinish: the end of the job reaches every attached reader after
// its last event, and a reader attaching after the end replays what the log
// still retains and is done at once.
func TestFanoutFinish(t *testing.T) {
	l, s := trace.NewLog(seg), new(trace.Stream)
	a, b := s.Cursor(0), s.Cursor(0)
	publish(l, s, seg+6)
	if _, _, done := drain(t, a); done {
		t.Fatal("stream reports done before the job ended")
	}
	select {
	case <-b.Ready(): // the appends' wake-up, so the next one is the end's
	default:
	}
	s.End()
	s.End() // ending twice is harmless
	if first, n, done := drain(t, a); n != 0 || !done {
		t.Errorf("reader a, caught up before the end: %d more events from seq %d, done %v", n, first, done)
	}
	select {
	case <-b.Ready():
	default:
		t.Error("the end did not wake reader b")
	}
	if first, n, done := drain(t, b); first != seg+1 || n != 6 || !done || b.Dropped() != seg {
		t.Errorf("reader b, stalled until the end: %d events from seq %d, done %v, dropped %d; want 6 from %d, done, %d",
			n, first, done, b.Dropped(), seg+1, seg)
	}
	a.Close() // closing after the end must be harmless

	late := s.Cursor(0)
	first, n, done := drain(t, late)
	if !done || first != seg+1 || n != 6 {
		t.Errorf("late attach: %d events from seq %d, done %v; want 6 from %d and done", n, first, done, seg+1)
	}
	if late.Dropped() != seg {
		t.Errorf("late attach missed %d, want %d", late.Dropped(), seg)
	}
}

// TestAppendEventMatchesJSON holds the append-style encoder to the one it
// replaced on the hot path: for seeded events over every awkward field value
// — each omitempty field empty and not, negative and 19-digit numbers,
// strings with characters encoding/json escapes, replaces or passes through —
// appendEvent writes the bytes writeEvent (json.Marshal + Fprintf) writes.
func TestAppendEventMatchesJSON(t *testing.T) {
	texts := []string{
		"", "em", "unit.stage-0.00017", "STAGING_INPUT", "cores=2 walltime=39m34.661971199s", "~ |{}[]:,",
		`say "hi"`, `back\slash`, "a<b", "a>b", "R&D", "2 pilot(s) × 2 cores", "tab\there", "nul\x00", "del\x7f",
		"line\u2028sep", "para\u2029sep", "bad\xffutf8", "\xc3", "日本語", strings.Repeat("x", 300) + "&",
	}
	numbers := []int64{0, 1, -1, 7, 1234567890123, math.MaxInt64, math.MinInt64, -1000000000000000000}
	rng := rand.New(rand.NewSource(22))
	pick := func() string { return texts[rng.Intn(len(texts))] }
	var got []byte
	var want bytes.Buffer
	for i := 0; i < 5000; i++ {
		ev := client.Event{Time: time.Duration(numbers[rng.Intn(len(numbers))]), Entity: pick(), State: pick(), Detail: pick()}
		name := "trace" // an env-stream record: no Seq, no Job
		if i%3 != 0 {
			name, ev.Seq, ev.Job = "job", numbers[rng.Intn(len(numbers))], pick()
		}
		got = appendEvent(got[:0], name, &ev)
		want.Reset()
		if err := writeEvent(&want, name, ev.Seq, ev); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("event %+v:\nappendEvent %q\nwriteEvent  %q", ev, got, want.Bytes())
		}
	}
}

// discardResponse is a ResponseWriter that keeps nothing and calls flushed
// after every Flush.
type discardResponse struct {
	header  http.Header
	bytes   int
	flushes int
	flushed func(flushes int)
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { d.bytes += len(p); return len(p), nil }
func (d *discardResponse) Flush()                      { d.flushes++; d.flushed(d.flushes) }

// TestStreamAllocatesPerBatch pins the server's side of an SSE stream: the
// cost of a stream does not grow with the events it carries — a 64-record
// batch is encoded, written, flushed and counted without allocating.
func TestStreamAllocatesPerBatch(t *testing.T) {
	srv := &Server{met: newMetrics(), stop: make(chan struct{})}
	rec := &jobRecord{id: "j-7af2d8e65c6eda5b58c40ad8"}
	streamOf := func(batches int) (allocs float64, bytes int) {
		l, s := trace.NewLog(1<<20), new(trace.Stream)
		for i := 0; i < 64*batches; i++ {
			l.Append(s, "s0-j1", aimes.TraceRecord{Time: 1e9 * sim.Time(i), Entity: fmt.Sprintf("unit.stage-0.%05d", i%48), State: "EXECUTING", Detail: "pilot.comet.s0-j1-2"})
		}
		allocs = testing.AllocsPerRun(5, func() {
			ctx, cancel := context.WithCancel(context.Background())
			w := &discardResponse{header: http.Header{}}
			w.flushed = func(flushes int) {
				if flushes == 1+batches { // the header's flush, then one per batch
					cancel()
				}
			}
			srv.stream(w, httptest.NewRequest("GET", "/v1/jobs/j/events", nil).WithContext(ctx), s.Cursor(0), rec)
			if w.flushes != 1+batches {
				t.Fatalf("%d flushes for %d batches", w.flushes-1, batches)
			}
			bytes = w.bytes
		})
		return allocs, bytes
	}
	small, smallBytes := streamOf(2)
	big, bigBytes := streamOf(34)
	if perEvent := (big - small) / (64 * 32); perEvent > 0.001 {
		t.Errorf("a stream of 34 batches costs %.0f allocations and one of 2 costs %.0f: %.3f per event, want 0", big, small, perEvent)
	}
	if bigBytes <= smallBytes*16 {
		t.Errorf("streams wrote %d and %d bytes: the larger one did not carry its events", smallBytes, bigBytes)
	}
}

// TestSSEMetricsCountBatches follows one job over SSE and reads the stream's
// own account of it on /metrics: every event and every body byte the client
// received is counted, in fewer flushes than events.
func TestSSEMetricsCountBatches(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(7), aimes.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	auth, err := NewAuth(map[string]Tenant{"tok": {Name: "alice"}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Env: env, Auth: auth})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Shutdown(context.Background())
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	info, err := client.New(hs.URL, "tok").SubmitRaw(ctx, bagRequest(t, 12, 600, 3))
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) []byte {
		req, _ := http.NewRequestWithContext(ctx, "GET", hs.URL+path, nil)
		req.Header.Set("Authorization", "Bearer tok")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	body := get("/v1/jobs/" + info.ID + "/events")
	events := int64(bytes.Count(body, []byte("event: job\n")))
	if events < 50 || !bytes.Contains(body, []byte("event: done\n")) {
		t.Fatalf("followed %d events; stream ends %q", events, body[max(0, len(body)-80):])
	}
	srv.met.mu.Lock()
	got := srv.met.sseJob
	srv.met.mu.Unlock()
	if got.events != events || got.bytes != int64(len(body)) || got.flushes < 1 || got.flushes > events {
		t.Errorf("metrics count %+v; the client read %d events in %d bytes", got, events, len(body))
	}
	page := string(get("/metrics"))
	for _, line := range []string{
		fmt.Sprintf(`aimes_sse_events_total{stream="job"} %d`, events),
		fmt.Sprintf(`aimes_sse_bytes_total{stream="job"} %d`, len(body)),
		fmt.Sprintf(`aimes_sse_flushes_total{stream="job"} %d`, got.flushes),
		`aimes_sse_events_total{stream="env"} 0`,
		`aimes_sse_dropped_total{stream="job"} 0`,
	} {
		if !strings.Contains(page, line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}
