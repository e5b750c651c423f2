package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// captured returns testdata/job.sse — one 4-task job's event stream as
// aimes-server wrote it (39 events and the terminal snapshot) — and the
// payload of each of its job events.
func captured(t testing.TB) (stream []byte, payloads [][]byte) {
	t.Helper()
	stream, err := os.ReadFile("testdata/job.sse")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(stream, []byte("\n")) {
		if p, ok := bytes.CutPrefix(line, []byte(`data: {"seq"`)); ok {
			payloads = append(payloads, append([]byte(`{"seq"`), p...))
		}
	}
	return stream, payloads
}

// collect runs consume over stream to its end and returns what a subscriber
// would have seen.
func collect(t *testing.T, stream []byte, bufSize int) (*EventStream, []Event, error) {
	t.Helper()
	s := &EventStream{ch: make(chan Event, 64), tab: new(internTable)}
	var got []Event
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range s.ch {
			got = append(got, ev)
		}
	}()
	err := s.consume(context.Background(), &lineReader{Reader: bufio.NewReaderSize(bytes.NewReader(stream), bufSize)})
	close(s.ch)
	<-drained
	return s, got, err
}

// TestConsumeCapturedStream: the hand-written reader delivers, from a stream
// the server wrote, exactly the events encoding/json decodes from it — the
// one with a non-ASCII detail included — and the terminal snapshot.
func TestConsumeCapturedStream(t *testing.T) {
	stream, payloads := captured(t)
	for _, framing := range []string{"\n", "\r\n"} {
		s, got, err := collect(t, bytes.ReplaceAll(stream, []byte("\n"), []byte(framing)), 4096)
		if err != nil {
			t.Fatalf("framing %q: %v", framing, err)
		}
		if len(got) != len(payloads) || len(got) != 39 {
			t.Fatalf("framing %q: %d events from %d payloads, want 39", framing, len(got), len(payloads))
		}
		for i, p := range payloads {
			var want Event
			if err := json.Unmarshal(p, &want); err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Errorf("framing %q: event %d = %+v, want %+v", framing, i, got[i], want)
			}
		}
		if fin := s.Final(); fin == nil || fin.State != "done" || fin.Report == nil || fin.Report.UnitsDone != 4 {
			t.Errorf("framing %q: final snapshot %+v", framing, fin)
		}
	}
}

// TestConsumeLongLine: a data line longer than the reader's buffer — a done
// snapshot with a full report, an event with a long detail — spills and is
// decoded whole, and the lines after it are not disturbed.
func TestConsumeLongLine(t *testing.T) {
	stream, _ := captured(t)
	long := Event{Seq: 40, Job: "j-1", Time: 7, Entity: "em", State: "FAILED", Detail: strings.Repeat("wedged ", 2000)}
	payload, _ := json.Marshal(long)
	done := bytes.Index(stream, []byte("event: done"))
	stream = []byte(string(stream[:done]) + "id: 40\nevent: job\ndata: " + string(payload) + "\n\n" + string(stream[done:]))
	for _, size := range []int{16, 64, 4096} { // 16 is bufio's minimum: every line spills
		s, got, err := collect(t, stream, size)
		if err != nil {
			t.Fatalf("buffer %d: %v", size, err)
		}
		if len(got) != 40 || got[39] != long || got[38].Seq != 39 {
			t.Fatalf("buffer %d: %d events, last %+v", size, len(got), got[len(got)-1].Seq)
		}
		if fin := s.Final(); fin == nil || fin.Report == nil || fin.Report.UnitsDone != 4 {
			t.Errorf("buffer %d: final snapshot %+v", size, fin)
		}
	}
	// A payload outside the grammar is still an error, not a skipped event.
	if _, _, err := collect(t, []byte("event: job\ndata: {\"seq\":01}\n\n"), 4096); err == nil || !strings.Contains(err.Error(), "bad job event") {
		t.Errorf("malformed payload: err = %v", err)
	}
}

// TestEventStreamAllocatesNothingPerEvent pins the client's per-event cost:
// once the stream's intern table has seen the job's vocabulary, framing and
// decoding an event allocates nothing.
func TestEventStreamAllocatesNothingPerEvent(t *testing.T) {
	const events = 1000
	var stream bytes.Buffer
	for i := 1; i <= events; i++ {
		ev := Event{Seq: int64(i), Job: "j-7af2d8e65c6eda5b58c40ad8", Time: time.Duration(i) * 1234567,
			Entity: fmt.Sprintf("unit.stage-0.%05d", i%48), State: []string{"SCHEDULING", "EXECUTING", "DONE"}[i%3]}
		if i%3 == 0 {
			ev.Detail = fmt.Sprintf("pilot.comet.s0-j1-%d", i%4)
		}
		payload, _ := json.Marshal(ev)
		fmt.Fprintf(&stream, "id: %d\nevent: job\ndata: %s\n\n", i, payload)
	}
	s := &EventStream{ch: make(chan Event, 64), tab: new(internTable)}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-s.ch:
			case <-stop:
				return
			}
		}
	}()
	// One stream read twice: the first pass warms the table consume keeps
	// for the whole stream, so the run's average is the steady state plus
	// what a stream costs once (its table; its buffers come with the reader,
	// as the pool lends them).
	twice := append(append([]byte(nil), stream.Bytes()...), stream.Bytes()...)
	rd := bytes.NewReader(nil)
	br := &lineReader{Reader: bufio.NewReader(rd)}
	perStream := testing.AllocsPerRun(10, func() {
		rd.Reset(twice)
		br.Reset(rd)
		if err := s.consume(context.Background(), br); err == nil || err.Error() != "EOF" {
			t.Fatalf("consume: %v", err)
		}
	})
	if perEvent := perStream / (2 * events); perEvent > 0.05 {
		t.Errorf("%.3f allocations per event (%.0f per %d-event stream), want at most 0.05", perEvent, perStream, 2*events)
	}
}

// FuzzDecodeEvent holds the hand-written payload reader to encoding/json:
// whatever the input, it either declines or returns what json.Unmarshal
// returns, and it never accepts what json.Unmarshal rejects.
func FuzzDecodeEvent(f *testing.F) {
	_, payloads := captured(f)
	for _, p := range payloads {
		f.Add(p)
	}
	for _, s := range []string{
		`{"time":5,"entity":"pilot.x","state":"ACTIVE"}`, // an env-stream record
		`{"seq":-3,"time":-9,"entity":"","state":""}`, `{}`, `{"time":0}`,
		// Numbers strconv accepts and JSON does not, or decodes differently.
		`{"seq":01}`, `{"seq":+5}`, `{"time":1e3}`, `{"time":1.0}`, `{"seq":-}`, `{"seq":-0}`,
		`{"time":9223372036854775807}`, `{"time":99999999999999999999}`,
		// Valid JSON outside the grammar: all must decline, not misread.
		`{ "seq":1}`, `{"seq":1 }`, `{"seq":1,"seq":2}`, `{"time":1,"seq":2}`, `{"extra":1,"time":2}`,
		`{"entity":"a\"b"}`, `{"entity":"a\\b"}`, `{"entity":"\u0041"}`, `{"entity":"a\nb"}`, `{"entity":"é"}`, "{\"entity\":\"\xff\"}", "{\"entity\":\"a\tb\"}",
		`{"entity":{"a":1}}`, `{"entity":["a"]}`, `{"entity":null}`, `{"Seq":1}`, `{"detail":"x"}`,
		`{"seq":1,}`, `{"seq":1}x`, `{"seq":1`, `{"entity":"a`, `[]`, `null`, ``,
		// Multi-byte text: read in place, but U+2028 (which json escapes) and
		// invalid UTF-8 (which it replaces) are declined.
		`{"seq":2,"job":"j-1","time":0,"entity":"em","state":"ENACTING","detail":"late binding, backfill scheduler, 2 pilot(s) × 2 cores"}`,
		"{\"time\":0,\"entity\":\"line\xe2\x80\xa8sep\",\"state\":\"S\"}", "{\"time\":0,\"entity\":\"para\xe2\x80\xa9sep\",\"state\":\"S\"}",
		"{\"time\":0,\"entity\":\"bad\xffutf8\",\"state\":\"S\"}", "{\"time\":0,\"entity\":\"cut\xe2\x80\",\"state\":\"S\"}",
		"{\"time\":0,\"entity\":\"surrogate\xed\xa0\x80\",\"state\":\"S\"}", "{\"time\":0,\"entity\":\"clef\xf0\x9d\x84\x9e\",\"state\":\"S\"}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab internTable
		var got Event
		if !tab.decodeEvent(data, &got) {
			return
		}
		want, err := unmarshalEvent(data)
		if err != nil {
			t.Fatalf("accepted %q, which encoding/json rejects: %v", data, err)
		}
		if got != want {
			t.Fatalf("decoded %q as %+v, encoding/json as %+v", data, got, want)
		}
		// The table hands back equal strings on a second pass.
		var again Event
		if !tab.decodeEvent(data, &again) || again != got {
			t.Fatalf("second decode of %q = %+v, first %+v", data, again, got)
		}
	})
}

// TestDecodeEventTakesTheServersPayloads: the fast path is the path — every
// payload of the captured stream, the ENACTING record's non-ASCII detail
// ("×") included, is decoded without encoding/json, and so is its terminal
// snapshot.
func TestDecodeEventTakesTheServersPayloads(t *testing.T) {
	stream, payloads := captured(t)
	var tab internTable
	for _, p := range payloads {
		var got, want Event
		if !tab.decodeEvent(p, &got) {
			t.Errorf("declined %q", p)
			continue
		}
		if err := json.Unmarshal(p, &want); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("decoded %q as %+v, want %+v (%v)", p, got, want, err)
		}
	}
	_, done, _ := bytes.Cut(stream, []byte("event: done\ndata: "))
	done, _, _ = bytes.Cut(done, []byte("\n"))
	var info JobInfo
	r := reader(done, &tab)
	if r.jobInfo(&info); !r.ok || !r.in.End() || info.Report == nil {
		t.Errorf("declined the terminal snapshot %q", done)
	}
}

// jobStreams serves the captured stream as the event stream of any job, with
// the captured job's ID replaced by the one asked for.
func jobStreams(t *testing.T) (base string) {
	t.Helper()
	stream, payloads := captured(t)
	var first Event
	if err := json.Unmarshal(payloads[0], &first); err != nil || first.Job == "" {
		t.Fatalf("captured payload %q: job %q, %v", payloads[0], first.Job, err)
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/events")
		w.Header().Set("Content-Type", "text/event-stream")
		w.Write(bytes.ReplaceAll(stream, []byte(first.Job), []byte(id)))
	}))
	t.Cleanup(hs.Close)
	return hs.URL
}

// follow reads one job's stream to its end.
func follow(t *testing.T, c *Client, id string) ([]Event, *JobInfo) {
	es, err := c.Events(context.Background(), id, 0)
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	var got []Event
	for ev := range es.C {
		got = append(got, ev)
	}
	if es.Err() != nil {
		t.Errorf("job %s: %v", id, es.Err())
	}
	return got, es.Final()
}

// roundTripFunc answers requests in memory.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestSecondStreamAllocatesNoReader pins the line reader a stream reads its
// body through: a stream opened after another has ended reads through that
// one's 4 KiB reader, lent by the pool, and allocates none in the 4096-byte
// size class, where nothing else a stream allocates falls. It counts the
// fewest of ten streams, since the race detector's sync.Pool drops a quarter
// of what it is given. The replies come from memory, so no connection's
// buffers are counted.
func TestSecondStreamAllocatesNoReader(t *testing.T) {
	stream, _ := captured(t)
	c := New("http://daemon.invalid", "").WithHTTPClient(&http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(stream)), Request: r}, nil
	})})
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	class := -1
	for i, c := range m.BySize {
		if c.Size == 4096 {
			class = i
		}
	}
	follow(t, c, "j-1") // the first stream: it allocates the reader
	fewest := uint64(math.MaxUint64)
	for range 10 {
		runtime.ReadMemStats(&m)
		before := m.BySize[class].Mallocs
		if events, final := follow(t, c, "j-1"); len(events) != 39 || final == nil {
			t.Fatalf("the stream delivered %d events and final snapshot %v, want 39 and one", len(events), final)
		}
		runtime.ReadMemStats(&m)
		fewest = min(fewest, m.BySize[class].Mallocs-before)
	}
	if fewest != 0 {
		t.Errorf("every stream after the first allocated %d objects of 4096 bytes, want none: its reader is the first's", fewest)
	}
}

// TestConcurrentStreamsShareOneTable: streams a Client reads at the same time
// share its intern table, and deliver exactly what a Client apiece delivers.
// Run it under -race.
func TestConcurrentStreamsShareOneTable(t *testing.T) {
	base := jobStreams(t)
	ids := []string{"j-7af2d8e65c6eda5b58c40ad8", "j-000000000000000000000001"}
	wantEvents := make([][]Event, len(ids))
	wantFinal := make([]*JobInfo, len(ids))
	for i, id := range ids {
		wantEvents[i], wantFinal[i] = follow(t, New(base, ""), id)
	}
	shared := New(base, "")
	for round := 0; round < 5; round++ {
		gotEvents := make([][]Event, len(ids))
		gotFinal := make([]*JobInfo, len(ids))
		var wg sync.WaitGroup
		for i, id := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gotEvents[i], gotFinal[i] = follow(t, shared, id)
			}()
		}
		wg.Wait()
		for i, id := range ids {
			if len(gotEvents[i]) != 39 || !reflect.DeepEqual(gotEvents[i], wantEvents[i]) || !reflect.DeepEqual(gotFinal[i], wantFinal[i]) {
				t.Fatalf("round %d, job %s: %d events, final %+v; a Client of its own read %d, final %+v",
					round, id, len(gotEvents[i]), gotFinal[i], len(wantEvents[i]), wantFinal[i])
			}
		}
	}
}

// TestSecondStreamInternsOnlyNewStrings pins the Client's table: once one
// job's stream has been read, the next job's stream on the same Client
// allocates one string — its job ID, the one it has not seen — beyond what
// reading a stream costs at all, where a Client of its own pays for the whole
// vocabulary again.
func TestSecondStreamInternsOnlyNewStrings(t *testing.T) {
	stream, payloads := captured(t)
	var first Event
	if err := json.Unmarshal(payloads[0], &first); err != nil {
		t.Fatal(err)
	}
	events := stream[:bytes.Index(stream, []byte("event: done"))] // the snapshot has strings of its own
	const jobs = 50
	fresh := make([][]byte, jobs+1) // AllocsPerRun's warm-up reads one more
	for i := range fresh {
		fresh[i] = bytes.ReplaceAll(events, []byte(first.Job), []byte(fmt.Sprintf("j-%024d", i)))
	}
	s := &EventStream{ch: make(chan Event, 64)}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-s.ch:
			case <-stop:
				return
			}
		}
	}()
	rd := bytes.NewReader(nil)
	br := &lineReader{Reader: bufio.NewReader(rd)}
	read := func(stream []byte) {
		rd.Reset(stream)
		br.Reset(rd)
		if err := s.consume(context.Background(), br); err != io.EOF {
			t.Fatalf("consume: %v", err)
		}
	}
	var c Client
	s.tab = &c.tab
	read(events)
	seen := testing.AllocsPerRun(jobs, func() { read(events) })
	next := 0
	shared := testing.AllocsPerRun(jobs, func() { read(fresh[next]); next++ })
	own := testing.AllocsPerRun(jobs, func() { s.tab = new(internTable); read(events) })
	t.Logf("allocations per stream: %.2f for one already seen, %.2f for a new job on the same Client, %.2f on a Client of its own", seen, shared, own)
	if shared-seen > 1.1 {
		t.Errorf("a new job's stream on the same Client costs %.2f allocations more than one already seen, want 1 (its job ID)", shared-seen)
	}
	if own-seen < 20 {
		t.Errorf("a stream on a Client of its own costs only %.2f allocations more than one already seen: the test exercises nothing", own-seen)
	}
}
