package backend

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aimes/internal/core"
	"aimes/internal/sim"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// traceResponse encodes Step response id carrying n trace records drawn
// from a vocabulary the size a real shard's is (a few dozen entities, a
// handful of states and details) and one completion.
func traceResponse(t testing.TB, n int, id uint64) []byte {
	t.Helper()
	resp := &response{ID: id, Fired: n, Drained: true}
	for i := 0; i < n; i++ {
		rec := &trace.Record{
			Time:   sim.Time(i) * 1e9,
			Entity: fmt.Sprintf("unit.task-%02d", i%48),
			State:  []string{"SCHEDULING", "STAGING_INPUT", "EXECUTING", "DONE"}[i%4],
		}
		if i%3 == 0 {
			rec.Detail = fmt.Sprintf("pilot=s0-j1.p%d", i%5)
		}
		resp.Events = append(resp.Events, wireEvent{Kind: kindTrace, Key: 1 + i%2, NS: "s0-j1", Rec: rec})
	}
	resp.Events = append(resp.Events, wireEvent{Kind: kindDone, Key: 1, Report: &core.Report{UnitsDone: n}})
	buf, err := newBinaryCodec().AppendResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// jobResponse encodes a Step response for job shaped like a real job's
// first frame: n trace records whose namespace, two pilot IDs and their
// batch jobs' details no other job uses, among units named as every job's
// are, and one completion. It also returns the bytes of the strings no
// other job uses.
func jobResponse(t testing.TB, n, job int) ([]byte, int) {
	t.Helper()
	ns := fmt.Sprintf("s0-j%d", job)
	pilots := []string{fmt.Sprintf("pilot.stampede.%s-1", ns), fmt.Sprintf("pilot.comet.%s-2", ns)}
	fresh := []string{ns, pilots[0], pilots[1], fmt.Sprintf("stampede.%04d", job), fmt.Sprintf("comet.%04d", job),
		pilots[0] + ", 1048576 bytes", pilots[1] + ", 1048576 bytes"}
	resp := &response{ID: 0, Fired: n, Drained: true}
	for i := 0; i < n; i++ {
		rec := &trace.Record{Time: sim.Time(i) * 1e9}
		switch {
		case i < 4:
			rec.Entity, rec.State, rec.Detail = pilots[i%2], []string{"NEW", "LAUNCHING"}[i/2], fresh[3+i%2]
		default:
			rec.Entity = fmt.Sprintf("unit.stage-0.%05d", i%96)
			rec.State = []string{"SCHEDULING", "STAGING_INPUT", "EXECUTING", "DONE"}[i%4]
			if rec.State == "STAGING_INPUT" {
				rec.Detail = fresh[5+i%2]
			}
		}
		resp.Events = append(resp.Events, wireEvent{Kind: kindTrace, Key: job, NS: ns, Rec: rec})
	}
	resp.Events = append(resp.Events, wireEvent{Kind: kindDone, Key: job, Report: &core.Report{UnitsDone: n}})
	buf, err := newBinaryCodec().AppendResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	text := 0
	for _, s := range fresh {
		text += len(s)
	}
	return buf, text
}

// sinkCall is one callback a sink received.
type sinkCall struct {
	done   bool
	key    int
	ns     string
	rec    trace.Record
	report *core.Report
}

// callSink records every callback, in order.
type callSink struct{ calls []sinkCall }

func (s *callSink) JobTrace(key int, ns string, rec trace.Record) {
	s.calls = append(s.calls, sinkCall{key: key, ns: ns, rec: rec})
}

func (s *callSink) JobDone(key int, report *core.Report) {
	s.calls = append(s.calls, sinkCall{done: true, key: key, report: report})
}

// wantCalls is what dispatching events must call, in order: JobTrace for a
// trace event, JobDone for a done event.
func wantCalls(events []wireEvent) []sinkCall {
	var out []sinkCall
	for _, ev := range events {
		if ev.Kind == kindDone {
			out = append(out, sinkCall{done: true, key: ev.Key, report: ev.Report})
		} else {
			out = append(out, sinkCall{key: ev.Key, ns: ev.NS, rec: *ev.Rec})
		}
	}
	return out
}

// decodeResponse is the parent's path from a read frame to the sink: c
// decodes the fields, and a session dispatches the events.
func decodeResponse(c *binaryCodec, frame []byte) (response, []sinkCall, error) {
	var resp response
	if err := c.DecodeResponse(frame, &resp); err != nil {
		return resp, nil, err
	}
	var sink callSink
	err := (&session{}).dispatch(&resp.tail, &sink)
	resp.Events, resp.tail = nil, eventTail{}
	return resp, sink.calls, err
}

// countSink counts callbacks and keeps nothing, so it allocates nothing.
type countSink struct{ traces, done int }

func (s *countSink) JobTrace(int, string, trace.Record) { s.traces++ }
func (s *countSink) JobDone(int, *core.Report)          { s.done++ }

// fixedID writes id into b as a four-byte uvarint (overlong, which
// binary.Uvarint reads like any other), so a canned frame's ID can be
// patched in place.
func fixedID(b []byte, id uint64) {
	b[0], b[1], b[2], b[3] = byte(id)|0x80, byte(id>>7)|0x80, byte(id>>14)|0x80, byte(id>>21)&0x7f
}

// cannedFrame is a whole binary response frame, header first, whose ID is
// four bytes wide for fixedID.
func cannedFrame(t testing.TB, payload []byte) []byte {
	t.Helper()
	if payload[0] != 0 {
		t.Fatal("canned payloads are encoded with ID 0")
	}
	frame := append(make([]byte, 8, 8+len(payload)), payload[1:]...)
	if err := finishFrame(frame, DefaultMaxFrame); err != nil {
		t.Fatal(err)
	}
	return frame
}

// cannedWorker accepts the binary layout at the handshake and then answers every
// request with the frame reply holds, its ID patched in: a peer that
// allocates nothing per exchange, so an allocation count sees the parent.
func cannedWorker(t *testing.T, reply *atomic.Pointer[[]byte]) Transport {
	return scriptedInit(t, acceptInit,
		func(r io.Reader, w *io.PipeWriter) {
			in := bufio.NewReader(r)
			var buf []byte
			for {
				var err error
				if buf, err = readFrameInto(in, buf, DefaultMaxFrame); err != nil || len(buf) < 2 {
					return
				}
				id, _ := binary.Uvarint(buf[1:]) // an opcode, then the ID
				frame := *reply.Load()
				fixedID(frame[4:], id)
				if _, err := w.Write(frame); err != nil {
					return
				}
			}
		})
}

// TestWorkerStepAllocatesOnlyItsReport pins the parent side of the wire: a
// Step through Worker.call — request, frame, fields, every event decoded
// and dispatched — allocates nothing but the completion's report, whether
// it carries 512 records or 4 096, once the read buffer has grown and the
// intern table has seen the shard's vocabulary; and a Step that brings
// strings new to the session costs at most one allocation more on average.
func TestWorkerStepAllocatesOnlyItsReport(t *testing.T) {
	var reply atomic.Pointer[[]byte]
	sink := &countSink{}
	w, err := Connect(cannedWorker(t, &reply), WorkerOptions{}, Config{Seed: 1}, sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, n := range []int{0, 512, 4096} {
		frame := cannedFrame(t, traceResponse(t, n, 0))
		reply.Store(&frame)
		rep, err := appendReport(nil, &core.Report{UnitsDone: n})
		if err != nil {
			t.Fatal(err)
		}
		c := newBinaryCodec()
		report := testing.AllocsPerRun(20, func() { c.readReport(&binReader{data: rep}) })
		sink.traces, sink.done = 0, 0
		got := testing.AllocsPerRun(10, func() {
			if fired, drained, err := w.Step(n); err != nil || fired != n || !drained {
				t.Fatalf("Step(%d) = %d, %v, %v", n, fired, drained, err)
			}
		})
		if sink.traces != 11*n || sink.done != 11 {
			t.Fatalf("%d-record Steps delivered %d records and %d completions over 11 calls", n, sink.traces, sink.done)
		}
		t.Logf("%d records: %.0f allocations, the report's %.0f", n, got, report)
		if got != report {
			t.Errorf("a %d-record Step costs %.0f allocations, want its report's %.0f", n, got, report)
		}
	}

	// Each Step of a real job brings strings new to the session. They are
	// copied into the codec's arena, so beyond its report a Step costs at
	// most one allocation on average: its share of the arena chunks and of
	// the intern table's growth, not one allocation per new string.
	const steps = 64
	frames := make([][]byte, steps)
	text := 0
	for i := range frames {
		payload, fresh := jobResponse(t, 512, 100+i)
		frames[i], text = cannedFrame(t, payload), text+fresh
	}
	rep, err := appendReport(nil, &core.Report{UnitsDone: 512})
	if err != nil {
		t.Fatal(err)
	}
	c := newBinaryCodec()
	report := testing.AllocsPerRun(20, func() { c.readReport(&binReader{data: rep}) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range frames {
		reply.Store(&frames[i])
		if _, _, err := w.Step(512); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	extra := float64(after.Mallocs-before.Mallocs)/steps - report
	t.Logf("%d Steps of fresh jobs (%d new bytes, %d arena chunks): %.2f allocations each beyond the report's %.0f",
		steps, text, (text+arenaChunk-1)/arenaChunk, extra, report)
	if extra > 1 {
		t.Errorf("a Step of a fresh job costs %.2f allocations beyond its report's %.0f, want at most one", extra, report)
	}
}

// TestHostStepAllocatesPerBatch pins the worker side of the wire: a Step's
// records go into the sink's reused slabs and out through the host's reused
// frame buffer, so once those have grown a response costs the same objects
// whether it carries 512 records or 4 096.
func TestHostStepAllocatesPerBatch(t *testing.T) {
	h := newHost(nil, io.Discard, nil)
	step := func(n int) float64 {
		return testing.AllocsPerRun(10, func() {
			for i := 0; i < n; i++ {
				h.sink.JobTrace(1+i%2, "s0-j1", trace.Record{Time: sim.Time(i), Entity: "unit.task-07", State: "EXECUTING"})
			}
			if err := h.writeResponse(&response{ID: 1, Fired: n}); err != nil {
				t.Fatal(err)
			}
		})
	}
	step(4096) // grows the slabs and the frame buffer
	if small, large := step(512), step(4096); small != large {
		t.Errorf("a Step response allocates %.0f objects at 512 records and %.0f at 4096, want the same", small, large)
	}
}

// recordedStep returns the binary payload of a Step response as a shard
// sends it: 512 trace events that three jobs of 8, 64 and 512 tasks, run
// together on one Local, recorded after their first 256.
func recordedStep(t testing.TB) []byte {
	t.Helper()
	var sink bufSink
	l, err := NewLocal(Config{Seed: 7741}, &sink)
	if err != nil {
		t.Fatal(err)
	}
	for key, n := range []int{8, 64, 512} {
		w, err := skeleton.Generate(skeleton.BagOfTasks(n, skeleton.Constant(600)), int64(key))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Enact(&Descriptor{Key: key + 1, MigratedFrom: -1, Descriptor: core.Descriptor{
			Workload: w,
			Config:   core.StrategyConfig{Binding: core.LateBinding, Scheduler: core.SchedBackfill, Pilots: 2},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for len(sink.events) < 256+512 {
		if _, drained, _ := l.Step(64); drained {
			t.Fatalf("the jobs traced %d events, want %d", len(sink.events), 256+512)
		}
	}
	payload, err := newBinaryCodec().AppendResponse(nil, &response{Fired: 512, Events: sink.events[256 : 256+512]})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// BenchmarkStepFrameDecode decodes a recorded 512-record Step response and
// dispatches its events, as the parent does with every Step of a worker
// shard, with a warm intern table and the frame's storage reused; it
// reports the time and the wire bytes per record.
func BenchmarkStepFrameDecode(b *testing.B) {
	frame := recordedStep(b)
	c, s, sink := newBinaryCodec(), &session{}, &countSink{}
	var buf frameBuf
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		resp := response{tail: eventTail{table: buf.table}}
		if err := c.DecodeResponse(frame, &resp); err != nil {
			b.Fatal(err)
		}
		resp.tail.frame = frame
		if err := s.dispatch(&resp.tail, sink); err != nil {
			b.Fatal(err)
		}
		buf, s.frames = s.frames[0], s.frames[:0]
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*512), "ns/record")
	b.ReportMetric(float64(len(frame))/512, "B/record")
}

// allocated reports the bytes decode allocates and its verdict.
func allocated(decode func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// forgedCount is a frame forged at one count: prefix leads up to it and
// suffix, well formed, follows it up to the first element that reserves
// what the count claims.
type forgedCount struct {
	name           string
	prefix, suffix []byte
	size           int  // the fewest bytes an element can take
	arena          bool // the count sizes a string arena, reserved whole
}

// checkForgedCounts runs every forged count twice. Beyond what the 16 bytes
// after it can hold, it must be refused before anything is reserved. Within
// what 4 MB of unreadable bytes (all 0xff) could hold, a list count must cost
// under 1 MB — one chunk, not count × the element's size — and an arena
// count at most the bytes it claims.
func checkForgedCounts(t *testing.T, decode func([]byte) error, cases []forgedCount) {
	t.Helper()
	for _, tc := range cases {
		for _, rest := range []int{16, 4 << 20} {
			count, limit := uint64(1<<26), uint64(64<<10)
			if rest > 16 {
				count, limit = uint64((len(tc.suffix)+rest)/tc.size), 1<<20
				if tc.arena {
					limit = uint64(rest + 256<<10)
				}
			}
			frame := binary.AppendUvarint(slices.Clone(tc.prefix), count)
			frame = append(append(frame, tc.suffix...), bytes.Repeat([]byte{0xff}, rest)...)
			got, err := allocated(func() error { return decode(frame) })
			if err == nil {
				t.Errorf("%s, count %d over %d bytes: decoded without error", tc.name, count, rest)
			}
			if got >= limit {
				t.Errorf("%s, count %d over %d bytes: allocated %d bytes before failing, want under %d", tc.name, count, rest, got, limit)
			}
		}
	}
}

// TestDecodeResponseForgedCount: an event, resource or map count the frame
// cannot back up is refused before anything is reserved, and one it could (a
// large frame whose first element is corrupt) costs at most one chunk, not
// count × the element's size. Events reserve nothing at all: they are
// decoded into the dispatching call's own array.
func TestDecodeResponseForgedCount(t *testing.T) {
	header := func(bits byte) []byte {
		return []byte{1, 0, 0, bits, 0} // ID 1; Err and Diag empty; flags; Fired 0
	}
	// One done event (an empty string table; kind, key 0, no namespace)
	// whose report has an empty arena, a zero strategy (nil resources) and
	// ten zero scalars.
	report := append(header(0), 1, 0, kindDone, 0, 0, evHasReport)
	decode := func(frame []byte) error {
		_, _, err := decodeResponse(newBinaryCodec(), frame)
		return err
	}
	checkForgedCounts(t, decode, []forgedCount{
		{"event count", header(0), nil, 4, false},
		{"string table", append(header(0), 1), nil, 1, false},
		{"enacted resources", append(header(respHasEnacted), 0, 0, 0, 0), nil, 1, false},
		{"report pilot waits", append(slices.Clone(report), make([]byte, 20)...), nil, 2, false},
		{"report arena", report, nil, 1, true},
	})
}

// TestForgedStringTableFailsSession: a Step response whose events name a
// string its table does not hold, or whose table claims more entries than
// the frame holds, fails the session with the decoder's error, reaches no
// sink and panics nowhere. So does one using the name escapes of older
// layouts — a kind 0 followed by the kind's name — or a trace event without
// its record, neither of which a worker that passed the handshake writes.
func TestForgedStringTableFailsSession(t *testing.T) {
	// A Step response (ID 0, no Err or Diag, no flags, fired 1)
	// carrying one event, then its string table and the event: for a trace
	// event, its kind, key 1, namespace, a record flag, time delta 0, and
	// the entity, state and detail.
	frame := func(table []string, event ...byte) []byte {
		b := []byte{0, 0, 0, 0, 2, 1}
		b = binary.AppendUvarint(b, uint64(len(table)))
		for _, s := range table {
			b = appendWireString(b, s)
		}
		return append(b, event...)
	}
	table := []string{"s0-j1", "unit.0001", "DONE"}
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"well formed", frame(table, kindTrace, 2, 1, evHasRec, 0, 2, 3, 0), ""},
		{"index past the table", frame(table, kindTrace, 2, 1, evHasRec, 0, 2, 4, 0), "string 4 past the frame's 3-entry table"},
		{"empty table", frame(nil, kindTrace, 2, 1, evHasRec, 0, 0, 0, 0), "string 1 past the frame's 0-entry table"},
		{"table count beyond the payload", append(frame(nil)[:6], 200, 1, kindTrace, 2, 0, evHasRec, 0, 0, 0, 0), "count 200 exceeds the payload"},
		{"kind name escape", frame(table, 0, 1, 't', 2, 1, evHasRec, 0, 2, 3, 0), "unknown event kind 0"},
		{"trace event without its record", frame(table, kindTrace, 2, 1, 0), "trace event without a record"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := cannedFrame(t, tc.payload)
			var reply atomic.Pointer[[]byte]
			reply.Store(&f)
			sink := &callSink{}
			w, err := Connect(cannedWorker(t, &reply), WorkerOptions{}, Config{Seed: 1}, sink, func(error) {})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Kill()
			_, _, err = w.Step(1)
			if tc.want == "" {
				if err != nil || len(sink.calls) != 1 || sink.calls[0].rec.State != "DONE" || sink.calls[0].ns != "s0-j1" {
					t.Fatalf("Step = %v, calls %+v", err, sink.calls)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "decoding frame: "+tc.want) {
				t.Fatalf("Step = %v, want the decoder's %q", err, tc.want)
			}
			if !w.Dead() || len(sink.calls) != 0 {
				t.Fatalf("after a forged table: dead %v, sink calls %+v", w.Dead(), sink.calls)
			}
		})
	}
}

// TestDecodeRequestForgedCount is the worker's side: a forged task, file,
// string, list or arena count in a workload, or resource count in a
// pre-derived strategy, costs at most the payload it claims. (A report
// crosses only in a done event: TestDecodeResponseForgedCount.)
func TestDecodeRequestForgedCount(t *testing.T) {
	derive := []byte{opDerive, 1, reqHasWorkload, 0, 0, 0}
	// An enact frame whose descriptor (key 0, no origin) has no workload, a
	// pre-derived strategy and no adaptive config.
	enact := []byte{opEnact, 1, reqHasDesc, 0, 0, 0, 0, 0, 0, 1, 0}
	decode := func(frame []byte) error {
		var req request
		return newBinaryCodec().DecodeRequest(frame, &req)
	}
	at := func(head []byte, fields ...byte) []byte { return append(slices.Clone(head), fields...) }
	// A workload's header after its task count (files, strings, arena), an
	// empty name and nil stages, then a task's five scalars.
	task := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	checkForgedCounts(t, decode, []forgedCount{
		{"task count", derive, task[:5], 8, false},
		{"file total", at(derive, 2), append(slices.Clone(task[1:]), 2), 3, false},
		{"string total", at(derive, 2, 0), []byte{0, 0, 2}, 1, false},
		{"arena bytes", at(derive, 2, 0, 0), nil, 1, true},
		{"stage list beyond the string total", at(derive, 1, 0, 0, 0, 0), nil, 1, false},
		{"stage list within a forged string total", at(derive, 1, 0), binary.AppendUvarint([]byte{0, 0}, 1<<20), 1, false},
		{"file list beyond the file total", at(derive, append([]byte{2}, task...)...), nil, 3, false},
		{"strategy resources", at(enact, 0, 0, 0), nil, 1, false},
	})
}

// TestDecodeRequestCopiesOutOfTheFrame: the host reads the next request into
// the same buffer, so nothing a decoded descriptor holds may alias it. The
// workload's files, deps and single lists all outgrow a decode chunk. The
// parent reuses its frame buffers too, so the same holds for the report a
// done event carries.
func TestDecodeRequestCopiesOutOfTheFrame(t *testing.T) {
	w, err := skeleton.Generate(skeleton.AppSpec{Name: "all-to-all", Stages: []skeleton.StageSpec{
		{Name: "map", Tasks: decodeChunk + 100, DurationS: skeleton.Constant(60), InputBytes: skeleton.Constant(1 << 10), OutputBytes: skeleton.Constant(1 << 10), Inputs: skeleton.MapExternal},
		{Name: "reduce", Tasks: 2, DurationS: skeleton.Constant(30), OutputBytes: skeleton.Constant(1 << 10), Inputs: skeleton.MapAllToAll},
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := &Descriptor{Key: 7, MigratedFrom: 1, Descriptor: core.Descriptor{
		Workload: w, Strategy: &core.Strategy{Pilots: 2, Resources: []string{"stampede", "gordon"}},
		Config: core.StrategyConfig{FixedResources: []string{"comet"}},
	}}
	frame, err := newBinaryCodec().AppendRequest(nil, &request{ID: 1, Op: opEnact, Desc: want})
	if err != nil {
		t.Fatal(err)
	}
	var req request
	if err := newBinaryCodec().DecodeRequest(frame, &req); err != nil {
		t.Fatal(err)
	}
	clear(frame)
	if !reflect.DeepEqual(req.Desc, want) {
		t.Fatalf("overwriting the frame changed the decoded request: %+v", req.Desc)
	}

	report := &core.Report{Strategy: *want.Strategy, UnitsDone: 3,
		PilotWaits: map[string]time.Duration{"pilot.stampede.s0-j7-1": time.Minute, "pilot.gordon.s0-j7-2": time.Hour}}
	frame, err = newBinaryCodec().AppendResponse(nil, &response{ID: 1, Events: []wireEvent{{Kind: kindDone, Key: 7, Report: report}}})
	if err != nil {
		t.Fatal(err)
	}
	_, calls, err := decodeResponse(newBinaryCodec(), frame)
	if err != nil {
		t.Fatal(err)
	}
	clear(frame)
	if len(calls) != 1 || !reflect.DeepEqual(calls[0].report, report) {
		t.Fatalf("overwriting the frame changed the decoded done event: %+v", calls)
	}
}

// nestingSink records every callback and, at its nest-th completion (from
// 0), enacts next from inside the callback — what the environment's
// admission does when a completion frees a window slot: a nested call on
// the same session. It counts the records that arrive after the nested call
// returned while nested is set.
type nestingSink struct {
	callSink
	w      *Worker
	next   *Descriptor
	nest   int
	dones  int
	nested bool
	after  int
	err    error
}

func (s *nestingSink) JobTrace(key int, ns string, rec trace.Record) {
	s.callSink.JobTrace(key, ns, rec)
	if s.nested {
		s.after++
	}
}

func (s *nestingSink) JobDone(key int, report *core.Report) {
	s.callSink.JobDone(key, report)
	if s.dones++; s.dones-1 == s.nest {
		_, s.err = s.w.Enact(s.next)
		s.nested = true
	}
}

// firstDiff fails the test at the first call got and want differ in.
func firstDiff(t *testing.T, what string, got, want []sinkCall) {
	t.Helper()
	for i := range want {
		if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: call %d of %d is %+v, want %+v", what, i, len(want), got[min(i, len(got)-1)], want[i])
		}
	}
	t.Fatalf("%s: %d calls, want %d", what, len(got), len(want))
}

// TestNestedEnactKeepsOuterBatch pins why the call dispatching a response
// owns its frame, its string table and its decode chunk: a dispatched
// JobDone enacts the next job, a nested exchange on the same session that
// reads a frame and runs the decoder again, and the rest of the outer batch
// must still reach the sink as the worker sent it. The reference is the
// same bytes decoded a frame at a time, each whole and on its own, with the
// nested enact's calls after the completion that made it.
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
	// Short batches, and a nested enact whose response (a 128-task job's
	// opening records) is longer than any of them: whatever the nested
	// decode reuses, it overwrites past the interrupted batch's position.
	// Long batches, whose interrupted frame still has whole chunks to decode
	// after the nested call returns, with its own string table: the nested
	// frame's table numbers other strings, so a decode that read the rest
	// of the batch through the nested table would hand it the wrong ones.
	for _, batch := range []int{64, 512} {
		var read bytes.Buffer // what the session read, frame by frame
		sink := &nestingSink{next: desc(3, 128, 120)}
		w, err := Connect(tapTransport{pipeWorker(t), &read, new(atomic.Int64)}, WorkerOptions{}, Config{Shard: 0, Seed: 11}, sink, nil)
		if err != nil {
			t.Fatal(err)
		}
		sink.w = w
		for _, d := range []*Descriptor{desc(1, 2, 30), desc(2, 48, 900)} {
			if _, err := w.Enact(d); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10000 && sink.dones < 3; i++ {
			if _, _, err := w.Step(batch); err != nil {
				t.Fatal(err)
			}
			sink.nested = false // only the interrupted batch counts
		}
		w.Close()
		if sink.err != nil || sink.dones != 3 {
			t.Fatalf("batch %d: %d jobs done, nested enact: %v", batch, sink.dones, sink.err)
		}
		if sink.after == 0 || batch > eventChunk && sink.after <= eventChunk {
			t.Fatalf("batch %d: %d records of the interrupted batch followed the nested enact: the test exercises nothing", batch, sink.after)
		}

		calls, tables, k := replayFrames(t, read.Bytes(), "s0-j3")
		if outer, nested := tables[k-1], tables[k]; len(outer) == 0 || len(nested) == 0 || outer[0] == nested[0] {
			t.Fatalf("batch %d: the interrupted frame's table %q and the nested enact's %q start alike: the test exercises nothing", batch, outer, nested)
		}
		var want []sinkCall
		for i, c := range calls {
			switch i {
			case k - 1:
				first := slices.IndexFunc(c, func(c sinkCall) bool { return c.done })
				want = append(append(append(want, c[:first+1]...), calls[k]...), c[first+1:]...)
			case k:
			default:
				want = append(want, c...)
			}
		}
		if !reflect.DeepEqual(sink.calls, want) {
			firstDiff(t, fmt.Sprintf("batch %d", batch), sink.calls, want)
		}
	}
}

// replayFrames splits what a session read into frames and decodes each
// after the init response on its own, whole, with a codec of its own. It
// returns each frame's sink calls and string table (none for the init
// response), and the index of the enact response that assigned
// namespace ns.
func replayFrames(t *testing.T, read []byte, ns string) (calls [][]sinkCall, tables [][]string, nested int) {
	t.Helper()
	nested = -1
	for i := 0; len(read) >= 4; i++ {
		n := binary.BigEndian.Uint32(read)
		frame := read[4 : 4+n]
		read = read[4+n:]
		if i == 0 { // the JSON init response
			calls, tables = append(calls, nil), append(tables, nil)
			continue
		}
		var resp response
		if err := newBinaryCodec().DecodeResponse(frame, &resp); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var table []string
		for _, e := range resp.tail.table {
			table = append(table, e.String())
		}
		var sink callSink
		if err := (&session{}).dispatch(&resp.tail, &sink); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		calls, tables = append(calls, sink.calls), append(tables, table)
		if resp.Enacted != nil && resp.Enacted.Namespace == ns {
			nested = i
		}
	}
	if nested < 1 {
		t.Fatalf("no enact response assigned %s", ns)
	}
	return calls, tables, nested
}

// TestChunkedDispatchMatchesEvents is the dispatch loop's differential
// test. Seeded Step batches of 0, K−1, K, K+1 and 4 096 events (K =
// eventChunk) — records and completions — cross a binary session, which
// must make the callbacks the events call for, in order. A completion at a
// random place in the first chunk of the largest batch enacts a job from
// inside its callback: that nested call's reply is longer than the chunk,
// and the outer call has the rest of its chunk to dispatch and most of its
// frame still to decode, so a nested call that read into the outer call's
// frame, or decoded into its chunk, would hand the rest of the batch over
// corrupted.
func TestChunkedDispatchMatchesEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(20261016))
	states := []string{"SCHEDULING", "STAGING_INPUT", "EXECUTING", "DONE"}
	events := func(n int) []wireEvent {
		evs := make([]wireEvent, n)
		for i := range evs {
			ev := wireEvent{Kind: kindTrace, Key: 1 + rng.Intn(4), NS: fmt.Sprintf("s0-j%d", 1+rng.Intn(4))}
			if rng.Intn(100) < 3 {
				ev.Kind, ev.Report = kindDone, &core.Report{UnitsDone: rng.Intn(100)}
			} else {
				ev.Rec = &trace.Record{Time: sim.Time(rng.Int63n(1e12)), Entity: fmt.Sprintf("unit.%04d", rng.Intn(64)), State: states[rng.Intn(len(states))]}
				if rng.Intn(3) == 0 {
					ev.Rec.Detail = fmt.Sprintf("pilot=s0-j1.p%d", rng.Intn(5))
				}
			}
			evs[i] = ev
		}
		return evs
	}
	var batches [][]wireEvent
	for _, n := range []int{0, eventChunk - 1, eventChunk, eventChunk + 1, 4096} {
		batches = append(batches, events(n))
	}
	enacted := events(2*eventChunk + 3)

	// The completion that nests sits at a random place in the largest
	// batch's first chunk, short of its end.
	big, pos := batches[len(batches)-1], rng.Intn(eventChunk-1)
	big[pos] = wireEvent{Kind: kindDone, Key: 1, Report: &core.Report{UnitsDone: pos}}

	// The reference: every event's call, in order, with the enact's calls
	// spliced in after the completion that nests it.
	var want []sinkCall
	dones, nest, splice := 0, 0, 0
	for bi, b := range batches {
		for ei := range b {
			if bi == len(batches)-1 && ei == pos {
				nest, splice = dones, len(want)+1
			}
			if b[ei].Kind == kindDone {
				dones++
			}
			want = append(want, wantCalls(b[ei:ei+1])...)
		}
	}
	want = slices.Insert(want, splice, wantCalls(enacted)...)

	step := 0
	tr := scriptedWorker(t, func(req *request) *response {
		switch req.Op {
		case opEnact:
			return &response{Enacted: &Enacted{Namespace: "s0-j9"}, Events: enacted}
		case opStep:
			b := batches[step]
			step++
			return &response{Fired: len(b), Events: b}
		}
		return &response{}
	})
	sink := &nestingSink{nest: nest, next: &Descriptor{Key: 9, MigratedFrom: -1}}
	w, err := Connect(tr, WorkerOptions{}, Config{Seed: 1}, sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink.w = w
	for _, b := range batches {
		if fired, _, err := w.Step(len(b)); err != nil || fired != len(b) {
			t.Fatalf("Step = %d, %v", fired, err)
		}
	}
	w.Kill()
	if sink.err != nil {
		t.Fatalf("nested enact: %v", sink.err)
	}
	if !reflect.DeepEqual(sink.calls, want) {
		firstDiff(t, "dispatch", sink.calls, want)
	}
}
