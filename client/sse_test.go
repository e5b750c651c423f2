package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
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
	s := &EventStream{ch: make(chan Event, 64)}
	var got []Event
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range s.ch {
			got = append(got, ev)
		}
	}()
	err := s.consume(context.Background(), bufio.NewReaderSize(bytes.NewReader(stream), bufSize))
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
	// One stream read twice: the first pass warms the table consume keeps
	// for the whole stream, so the run's average is the steady state plus
	// what a stream costs once (its buffers and its table).
	twice := append(append([]byte(nil), stream.Bytes()...), stream.Bytes()...)
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
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
// all-ASCII payload of the captured stream is decoded without encoding/json.
func TestDecodeEventTakesTheServersPayloads(t *testing.T) {
	_, payloads := captured(t)
	var tab internTable
	declined := 0
	for _, p := range payloads {
		var got, want Event
		if !tab.decodeEvent(p, &got) {
			declined++
			continue
		}
		if err := json.Unmarshal(p, &want); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("decoded %q as %+v, want %+v (%v)", p, got, want, err)
		}
	}
	if declined != 1 { // the ENACTING record's detail has a "×"
		t.Errorf("%d of %d captured payloads declined, want 1", declined, len(payloads))
	}
}
