package backend

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"aimes/internal/core"
	"aimes/internal/sim"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// traceResponse encodes a Step response carrying n trace records drawn from
// a vocabulary the size a real shard's is (a few dozen entities, a handful
// of states and details) and one completion.
func traceResponse(t testing.TB, n int) []byte {
	t.Helper()
	resp := &response{ID: 9, Fired: n, Drained: true}
	for i := 0; i < n; i++ {
		rec := &trace.WireRecord{
			Time:   sim.Time(i) * 1e9,
			Entity: fmt.Sprintf("unit.task-%02d", i%48),
			State:  []string{"SCHEDULING", "STAGING_INPUT", "EXECUTING", "DONE"}[i%4],
		}
		if i%3 == 0 {
			rec.Detail = fmt.Sprintf("pilot=s0-j1.p%d", i%5)
		}
		resp.Events = append(resp.Events, wireEvent{Kind: eventTrace, Key: 1 + i%2, NS: "s0-j1", Rec: rec})
	}
	resp.Events = append(resp.Events, wireEvent{Kind: eventDone, Key: 1, Report: &core.Report{UnitsDone: n}})
	buf, err := newBinaryCodec().AppendResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestDecodeResponseAllocatesPerBatch pins the parent side of the wire: once
// the intern table has seen the shard's vocabulary, decoding a response costs
// the event slice and the record slab — whatever the record count. (The
// completion's report is a JSON blob and is counted apart.)
func TestDecodeResponseAllocatesPerBatch(t *testing.T) {
	c := newBinaryCodec()
	decode := func(frame []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			var resp response
			if err := c.DecodeResponse(frame, &resp); err != nil {
				t.Fatal(err)
			}
		})
	}
	report := decode(traceResponse(t, 0)) // the done event alone: its report
	for _, n := range []int{64, 512} {
		frame := traceResponse(t, n)
		var resp response
		if err := c.DecodeResponse(frame, &resp); err != nil { // warms the table
			t.Fatal(err)
		}
		if len(resp.Events) != n+1 || resp.Events[n-1].Rec.State != "DONE" || resp.Events[n].Report.UnitsDone != n {
			t.Fatalf("decoded %d events, last record %+v", len(resp.Events), resp.Events[n-1].Rec)
		}
		got := decode(frame) - report
		t.Logf("%d records: %.0f allocations", n, got)
		if got > 4 {
			t.Errorf("decoding %d records costs %.0f allocations beyond the report's, want at most 4", n, got)
		}
	}
}

// TestDecodeResponseForgedCount: an event count the frame cannot back up is
// refused before anything is reserved, and one it could (a large frame whose
// first event is corrupt) costs one chunk, not count × 56 bytes.
func TestDecodeResponseForgedCount(t *testing.T) {
	header := func(count uint64) []byte {
		b := binary.AppendUvarint(nil, 1) // ID
		b = append(b, 0, 0, 0, 0)         // Err, Diag, Codec empty; no flags
		b = binary.AppendVarint(b, 0)     // Fired
		return binary.AppendUvarint(b, count)
	}
	allocated := func(frame []byte) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var resp response
		err := newBinaryCodec().DecodeResponse(frame, &resp)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	for _, tc := range []struct {
		name    string
		count   uint64
		payload int // bytes after the count; the first is an unknown event kind
	}{
		{"count beyond the payload", 1 << 26, 16},
		{"count the payload could hold", 1 << 20, 4 << 20},
	} {
		frame := append(header(tc.count), make([]byte, tc.payload)...)
		frame[len(frame)-tc.payload] = 0xff
		got, err := allocated(frame)
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
		if got >= 1<<20 {
			t.Errorf("%s: allocated %d bytes before failing, want under 1 MB", tc.name, got)
		}
	}
}

// nestingSink enacts a queued descriptor from inside the first JobDone it is
// handed — what the environment's admission does when a completion frees a
// window slot — and counts the records of the interrupted batch that arrive
// after the nested call returned.
type nestingSink struct {
	collectSink
	keys   []int
	w      *Worker
	next   *Descriptor
	nested bool
	after  int
	err    error
}

func (s *nestingSink) JobTrace(key int, ns string, rec trace.Record) {
	s.collectSink.JobTrace(key, ns, rec)
	s.keys = append(s.keys, key)
	if s.nested {
		s.after++
	}
}

func (s *nestingSink) JobDone(key int, report *core.Report) {
	s.collectSink.JobDone(key, report)
	if s.next != nil {
		d := s.next
		s.next = nil
		_, s.err = s.w.Enact(d)
		s.nested = true
	}
}

// TestNestedEnactKeepsOuterBatch pins why DecodeResponse materialises a
// batch that Worker.call owns: a dispatched JobDone enacts the next job, a
// nested exchange on the same session that refills its read buffer and runs
// the decoder again, and the rest of the outer batch must still reach the
// sink as the worker sent it. The JSON codec borrows nothing, so it is the
// reference: both codecs must deliver the same callbacks in the same order.
func TestNestedEnactKeepsOuterBatch(t *testing.T) {
	desc := func(key, tasks int, seconds float64) *Descriptor {
		w, err := skeleton.Generate(skeleton.BagOfTasks(tasks, skeleton.Constant(seconds)), int64(key))
		if err != nil {
			t.Fatal(err)
		}
		return &Descriptor{Key: key, MigratedFrom: -1, Descriptor: core.Descriptor{
			Workload: w,
			Config:   core.StrategyConfig{Binding: core.LateBinding, Scheduler: core.SchedBackfill, Pilots: 2},
		}}
	}
	run := func(codec string) *nestingSink {
		sink := &nestingSink{next: desc(3, 128, 120)}
		w, err := Connect(pipeWorker(t), WorkerOptions{Codec: codec}, Config{Shard: 0, Seed: 11}, sink, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		sink.w = w
		for _, d := range []*Descriptor{desc(1, 2, 30), desc(2, 48, 900)} {
			if _, err := w.Enact(d); err != nil {
				t.Fatal(err)
			}
		}
		// Short batches and a nested enact whose response (a 128-task job's
		// opening records) is longer than any of them: whatever the nested
		// decode reuses, it overwrites past the interrupted batch's position.
		for i := 0; i < 10000 && len(sink.done) < 3; i++ {
			if _, _, err := w.Step(64); err != nil {
				t.Fatal(err)
			}
			sink.nested = false // only the interrupted batch counts
		}
		if sink.err != nil || len(sink.done) != 3 {
			t.Fatalf("%s: %d jobs done, nested enact: %v", codec, len(sink.done), sink.err)
		}
		return sink
	}
	bin, ref := run(CodecBinary), run(CodecJSON)
	if bin.after == 0 {
		t.Fatal("the nested enact interrupted no batch: the test exercises nothing")
	}
	if !reflect.DeepEqual(bin.keys, ref.keys) || !reflect.DeepEqual(bin.ns, ref.ns) || !reflect.DeepEqual(bin.traces, ref.traces) {
		for i := range ref.traces {
			if i >= len(bin.traces) || bin.traces[i] != ref.traces[i] || bin.keys[i] != ref.keys[i] || bin.ns[i] != ref.ns[i] {
				t.Fatalf("record %d of %d: binary delivered job %d %q %+v, want job %d %q %+v", i, len(ref.traces),
					bin.keys[i], bin.ns[i], bin.traces[i], ref.keys[i], ref.ns[i], ref.traces[i])
			}
		}
		t.Fatalf("binary delivered %d records, JSON %d", len(bin.traces), len(ref.traces))
	}
	for key, r := range ref.done {
		if !reflect.DeepEqual(bin.done[key], r) {
			t.Errorf("job %d: report differs across codecs", key)
		}
	}
}
