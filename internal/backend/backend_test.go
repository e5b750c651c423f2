package backend

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"aimes/internal/core"
	"aimes/internal/site"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// writeFrame and readFrame are the tests' own hand-rolled JSON framing — an
// independent implementation of the wire's bootstrap encoding, so the serve
// loop is exercised by a peer that shares no session-layer code with it.
func writeFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func TestFrameRoundTrip(t *testing.T) {
	in := request{ID: 42, Op: opStep, Max: 64}
	buf := make([]byte, 4, 256)
	buf, err := jsonCodec{}.AppendRequest(buf, &in)
	if err != nil {
		t.Fatal(err)
	}
	if err := finishFrame(buf, DefaultMaxFrame); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrameInto(bytes.NewReader(buf), nil, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	var out request
	if err := (jsonCodec{}).DecodeRequest(payload, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip %+v → %+v", in, out)
	}
	// A truncated stream surfaces as an error, not a hang or a zero value.
	if _, err := readFrameInto(bytes.NewReader(buf[:len(buf)-3]), nil, DefaultMaxFrame); err == nil {
		t.Fatal("truncated frame decoded without error")
	}
	// A corrupt length prefix is caught before allocation.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := readFrameInto(bytes.NewReader(huge), nil, DefaultMaxFrame); err == nil || err == io.EOF {
		t.Fatalf("oversized frame length: got %v", err)
	}
	// A frame over the limit fails on both the write and the read side (a
	// small one here; sessions and hosts pass DefaultMaxFrame).
	if err := finishFrame(buf, 8); err == nil {
		t.Fatal("oversized frame encoded under a small limit")
	}
	if err := finishFrame(buf, DefaultMaxFrame); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrameInto(bytes.NewReader(buf), nil, 8); err == nil {
		t.Fatal("oversized frame read under a small limit")
	}
}

// fillValue sets every field reachable from v to a non-zero value, distinct
// where the type allows, so a dropped or crossed-over field shows up in a
// comparison.
func fillValue(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillValue(t, v.Index(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillValue(t, v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillValue(t, v.Field(i), n)
		}
	default:
		t.Fatalf("fillValue: no rule for %s (kind %s); a Config field of this kind is not plain data", v.Type(), v.Kind())
	}
}

// TestInitFrameCarriesEveryConfigField is the worker half of the in-process
// → wire parity contract: a Config with every field set — site.Config,
// batch.WaitModel and pilot.Config included, found by reflection — goes
// through the init request as the worker decodes it, and must arrive equal.
// So does the difference between no site list (the default testbed) and an
// empty one. A field that is not plain data cannot be added to any of the
// four structs without failing here.
func TestInitFrameCarriesEveryConfigField(t *testing.T) {
	var full Config
	n := 0
	fillValue(t, reflect.ValueOf(&full).Elem(), &n)
	if full.Pilot == nil || len(full.Sites) != 2 || full.Sites[1].WaitModel.MaxWait == 0 || full.Sites[1].Policy == "" {
		t.Fatalf("fillValue left a field unset: %+v", full)
	}
	for name, want := range map[string]Config{
		"every field": full,
		"nil sites":   {Shard: 1, Seed: 2},
		"empty sites": {Shard: 1, Seed: 2, Sites: []site.Config{}},
	} {
		for _, c := range []codec{jsonCodec{}, newBinaryCodec()} {
			got := roundTripRequest(t, c, &request{ID: 1, Op: opInit, Init: &want, Codec: CodecBinary})
			if got.Init == nil || !reflect.DeepEqual(*got.Init, want) {
				t.Errorf("%s over %s: the worker decoded\n%+v\nwant\n%+v", name, c.Name(), got.Init, want)
			}
		}
	}
}

// collectSink records sink callbacks in order for assertions.
type collectSink struct {
	traces []trace.Record
	ns     []string
	done   map[int]*core.Report
}

func (s *collectSink) JobTrace(key int, ns string, rec trace.Record) {
	s.traces = append(s.traces, rec)
	s.ns = append(s.ns, ns)
}

func (s *collectSink) JobDone(key int, report *core.Report) {
	if s.done == nil {
		s.done = map[int]*core.Report{}
	}
	s.done[key] = report
}

// TestLocalBackendLifecycle drives a Local backend through the full seam:
// enact, step to completion, completion through the sink, then the
// incomplete diagnostic on an unknown key.
func TestLocalBackendLifecycle(t *testing.T) {
	sink := &collectSink{}
	l, err := NewLocal(Config{Shard: 1, Seed: 7}, sink)
	if err != nil {
		t.Fatal(err)
	}
	w, err := skeleton.Generate(skeleton.BagOfTasks(4, skeleton.Constant(60)), 7)
	if err != nil {
		t.Fatal(err)
	}
	en, err := l.Enact(&Descriptor{
		Key:          11,
		MigratedFrom: 0, // arrived via a handoff from shard 0
		Descriptor: core.Descriptor{
			Workload: w,
			Config:   core.StrategyConfig{Binding: core.LateBinding, Scheduler: core.SchedBackfill, Pilots: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if en.Namespace != "s1-j1" {
		t.Fatalf("namespace %q, want s1-j1", en.Namespace)
	}
	if en.Strategy.Pilots != 2 {
		t.Fatalf("strategy %+v", en.Strategy)
	}
	// The MIGRATED record precedes ENACTING, both already in the sink.
	if len(sink.traces) < 2 || sink.traces[0].State != trace.StateMigrated || sink.traces[1].State != "ENACTING" {
		t.Fatalf("enact trace prefix %+v", sink.traces[:min(3, len(sink.traces))])
	}
	for _, ns := range sink.ns {
		if ns != "s1-j1" {
			t.Fatalf("trace carried namespace %q", ns)
		}
	}
	for i := 0; i < 10000; i++ {
		if _, drained, err := l.Step(64); err != nil {
			t.Fatal(err)
		} else if drained {
			break
		}
	}
	r := sink.done[11]
	if r == nil {
		t.Fatal("no completion through the sink")
	}
	if r.UnitsDone != 4 {
		t.Fatalf("report %d units done, want 4", r.UnitsDone)
	}
	if err := l.Incomplete(99); err == nil || !strings.Contains(err.Error(), "99") {
		t.Fatalf("unknown-key diagnostic: %v", err)
	}
	if now := l.Engine().Now(); now <= 0 {
		t.Fatalf("engine time %v after a full run", now)
	}
}

// TestServeProtocol runs the worker serve loop over in-memory pipes and
// checks init, enact, step-to-done, and close — the protocol exercised
// without processes.
func TestServeProtocol(t *testing.T) {
	cr, cw := io.Pipe() // client reads ← worker writes
	wr, ww := io.Pipe() // worker reads ← client writes
	serveErr := make(chan error, 1)
	go func() { serveErr <- Serve(wr, cw) }()

	var id uint64
	call := func(req *request) *response {
		t.Helper()
		id++
		req.ID = id
		if err := writeFrame(ww, req); err != nil {
			t.Fatal(err)
		}
		var resp response
		if err := readFrame(cr, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID != id {
			t.Fatalf("response %d for request %d", resp.ID, id)
		}
		return &resp
	}

	if resp := call(&request{Op: opStep, Max: 1}); resp.Err == "" {
		t.Fatal("operation before init succeeded")
	}
	if resp := call(&request{Op: opInit, Init: &Config{Shard: 0, Seed: 42}}); resp.Err != "" {
		t.Fatalf("init: %s", resp.Err)
	}
	// Payload-carrying ops with the payload missing must answer with a
	// protocol error, not crash the worker.
	if resp := call(&request{Op: opEnact}); resp.Err == "" {
		t.Fatal("enact without a descriptor succeeded")
	}
	if resp := call(&request{Op: opDerive}); resp.Err == "" {
		t.Fatal("derive without a config succeeded")
	}
	if resp := call(&request{Op: opFeedback}); resp.Err == "" {
		t.Fatal("feedback without a report succeeded")
	}
	w, err := skeleton.Generate(skeleton.BagOfTasks(3, skeleton.Constant(30)), 1)
	if err != nil {
		t.Fatal(err)
	}
	resp := call(&request{Op: opEnact, Desc: &Descriptor{
		Key: 1, MigratedFrom: -1,
		Descriptor: core.Descriptor{
			Workload: w,
			Config:   core.StrategyConfig{Binding: core.EarlyBinding, Scheduler: core.SchedDirect, Pilots: 1},
		},
	}})
	if resp.Err != "" {
		t.Fatalf("enact: %s", resp.Err)
	}
	if resp.Enacted == nil || resp.Enacted.Namespace != "s0-j1" {
		t.Fatalf("enacted %+v", resp.Enacted)
	}
	sawEnacting := false
	for _, ev := range resp.Events {
		if ev.Kind == eventTrace && ev.Rec != nil && ev.Rec.State == "ENACTING" {
			sawEnacting = true
		}
	}
	if !sawEnacting {
		t.Fatal("enact response carried no ENACTING trace event")
	}
	var done *core.Report
	for i := 0; i < 10000 && done == nil; i++ {
		resp := call(&request{Op: opStep, Max: 64})
		if resp.Err != "" {
			t.Fatalf("step: %s", resp.Err)
		}
		for _, ev := range resp.Events {
			if ev.Kind == eventDone && ev.Key == 1 {
				done = ev.Report
			}
		}
		if resp.Drained {
			break
		}
	}
	if done == nil || done.UnitsDone != 3 {
		t.Fatalf("completion over the wire: %+v", done)
	}
	call(&request{Op: opClose})
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after close")
	}
}
