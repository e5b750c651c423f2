package backend

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"aimes/internal/core"
	"aimes/internal/site"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// writeFrame and readFrame are the tests' own hand-rolled JSON framing — an
// independent implementation of the handshake's encoding, so the serve
// loop's handshake is exercised by a peer that shares no session-layer code
// with it.
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
	buf, err := newBinaryCodec().AppendRequest(buf, &in)
	if err != nil {
		t.Fatal(err)
	}
	if err := finishFrame(buf, DefaultMaxFrame); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrameInto(bufio.NewReader(bytes.NewReader(buf)), nil, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	var out request
	if err := newBinaryCodec().DecodeRequest(payload, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip %+v → %+v", in, out)
	}
	// An opcode outside the ops neither encodes nor decodes: no op (0),
	// the init op's retired 1 (the init rides the JSON handshake) and one
	// past the last.
	for _, code := range []byte{0, 1, opClose + 1} {
		if _, err := newBinaryCodec().AppendRequest(nil, &request{Op: code}); err == nil {
			t.Fatalf("opcode %d encoded", code)
		}
		frame := []byte{code, 1, 0, 0, 0, 0} // ID 1, no payloads, max, key and reason empty
		want := fmt.Sprintf("unknown opcode %d", code)
		if err := newBinaryCodec().DecodeRequest(frame, &out); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("opcode %d: %v, want %q", code, err, want)
		}
	}
	// A truncated stream surfaces as an error, not a hang or a zero value.
	if _, err := readFrameInto(bufio.NewReader(bytes.NewReader(buf[:len(buf)-3])), nil, DefaultMaxFrame); err == nil {
		t.Fatal("truncated frame decoded without error")
	}
	// A corrupt length prefix is caught before allocation.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := readFrameInto(bufio.NewReader(bytes.NewReader(huge)), nil, DefaultMaxFrame); err == nil || err == io.EOF {
		t.Fatalf("oversized frame length: got %v", err)
	}
	// A frame over the limit fails on both the write and the read side (a
	// small one here; sessions and hosts pass DefaultMaxFrame).
	if err := finishFrame(buf, 4); err == nil {
		t.Fatal("oversized frame encoded under a small limit")
	}
	if err := finishFrame(buf, DefaultMaxFrame); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrameInto(bufio.NewReader(bytes.NewReader(buf)), nil, 4); err == nil {
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
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for range 2 {
			key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fillValue(t, key, n)
			fillValue(t, elem, n)
			v.SetMapIndex(key, elem)
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
// through the handshake's init request as the worker decodes it, and must
// arrive equal.
// So does the difference between no site list (the default testbed) and an
// empty one. A field that is not plain data cannot be added to any of the
// four structs without failing here.
func TestInitFrameCarriesEveryConfigField(t *testing.T) {
	var full Config
	n := 0
	fillValue(t, reflect.ValueOf(&full).Elem(), &n)
	if full.Pilot == nil || len(full.Sites) != 2 || full.Sites[1].WaitModel.MaxWait == 0 || full.Sites[1].StorageGB == 0 {
		t.Fatalf("fillValue left a field unset: %+v", full)
	}
	for name, want := range map[string]Config{
		"every field": full,
		"nil sites":   {Shard: 1, Seed: 2},
		"empty sites": {Shard: 1, Seed: 2, Sites: []site.Config{}},
	} {
		in := initRequest{ID: 1, Op: initOp, Init: &want, Codec: binaryWire}
		frame, err := appendJSON(nil, &in)
		if err != nil {
			t.Fatal(err)
		}
		var got initRequest
		if err := decodeJSON(frame, &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, in) {
			t.Errorf("%s: the worker decoded\n%+v\nwant\n%+v", name, got.Init, want)
		}
	}
}

// lists appends every slice and map reachable from v, each settable in
// place, so a test can hollow one out and put it back.
func lists(v reflect.Value, out *[]reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		*out = append(*out, v)
		for i := 0; i < v.Len(); i++ {
			lists(v.Index(i), out)
		}
	case reflect.Map:
		*out = append(*out, v)
	case reflect.Pointer:
		if !v.IsNil() {
			lists(v.Elem(), out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			lists(v.Field(i), out)
		}
	}
}

// TestFramesCarryEveryPayloadField is the job half of the wire parity
// contract: the descriptor (workload, strategy, config, adaptive), the
// enact result, the derived strategy, the strategy config and the report,
// every field set by reflection, cross the binary codec and arrive equal —
// and again with each slice and map in turn nil, then empty. A value JSON
// cannot encode (NaN, ±Inf) is an encode error too.
func TestFramesCarryEveryPayloadField(t *testing.T) {
	var p struct {
		Desc     Descriptor
		Enacted  Enacted
		Strategy core.Strategy
		Config   core.StrategyConfig
		Report   core.Report
		Workload skeleton.Workload
	}
	n := 0
	fillValue(t, reflect.ValueOf(&p).Elem(), &n)
	if p.Desc.Adaptive == nil || len(p.Desc.Workload.Tasks[1].Deps) != 2 || len(p.Report.PilotWaits) != 2 || p.Report.Strategy.EstTrp == 0 {
		t.Fatalf("fillValue left a field unset: %+v", p)
	}
	req := &request{ID: 1, Op: opEnact, Desc: &p.Desc, Workload: &p.Workload, Config: &p.Config}
	resp := &response{ID: 1, Enacted: &p.Enacted, Strategy: &p.Strategy, Events: []wireEvent{{Kind: kindDone, Key: 3, Report: &p.Report}}}
	show := func(v any) string {
		b, _ := json.Marshal(v)
		return string(b)
	}
	check := func(variant string) {
		t.Helper()
		if got := roundTripRequest(t, req); !reflect.DeepEqual(&got, req) {
			t.Fatalf("%s: the worker decoded\n%s\nwant\n%s", variant, show(got), show(req))
		}
		want := *resp
		want.Events = nil
		if got, calls := roundTripResponse(t, resp); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(calls, wantCalls(resp.Events)) {
			t.Fatalf("%s: the parent decoded\n%s\nand dispatched %+v\nwant\n%s", variant, show(got), calls, show(resp))
		}
	}
	check("every field")
	var all []reflect.Value
	lists(reflect.ValueOf(&p).Elem(), &all)
	for i, v := range all {
		full := reflect.ValueOf(v.Interface())
		v.Set(reflect.Zero(v.Type()))
		check(fmt.Sprintf("%s %d nil", v.Type(), i))
		if v.Kind() == reflect.Map {
			v.Set(reflect.MakeMap(v.Type()))
		} else {
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		}
		check(fmt.Sprintf("%s %d empty", v.Type(), i))
		v.Set(full)
	}

	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p.Report.Efficiency = f
		if _, err := newBinaryCodec().AppendResponse(nil, resp); err == nil {
			t.Errorf("report %v: the done event encoded", f)
		}
		p.Report.Efficiency = 1.5
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

// rawPeer drives a serve loop frame by frame over in-memory pipes, sharing
// no session code with the parent's: JSON init frames until the worker
// accepts one, binary frames after that.
type rawPeer struct {
	t      *testing.T
	w      *io.PipeWriter
	in     *bufio.Reader
	bin    *binaryCodec // set once an init is accepted
	id     uint64
	served chan error
}

func servePeer(t *testing.T) *rawPeer {
	cr, sw := io.Pipe() // peer reads ← worker writes
	sr, cw := io.Pipe() // worker reads ← peer writes
	p := &rawPeer{t: t, w: cw, in: bufio.NewReader(cr), served: make(chan error, 1)}
	go func() { p.served <- Serve(sr, sw) }()
	return p
}

// init sends req as a JSON init frame under the next ID and returns the
// answer; an answer echoing the binary layout switches the peer to binary.
func (p *rawPeer) init(req *initRequest) *initResponse {
	p.t.Helper()
	p.id++
	req.ID = p.id
	var resp initResponse
	if err := writeFrame(p.w, req); err != nil {
		p.t.Fatal(err)
	}
	if err := readFrame(p.in, &resp); err != nil {
		p.t.Fatal(err)
	}
	if resp.ID != p.id {
		p.t.Fatalf("response %d for init %d", resp.ID, p.id)
	}
	if resp.Codec == binaryWire {
		p.bin = newBinaryCodec()
	}
	return &resp
}

// call sends req in binary under the next ID and returns the response and
// the sink calls its events make.
func (p *rawPeer) call(req *request) (*response, []sinkCall) {
	p.t.Helper()
	if p.bin == nil {
		p.t.Fatal("a binary call before an accepted init")
	}
	p.id++
	req.ID = p.id
	frame, err := p.bin.AppendRequest(make([]byte, 4), req)
	if err == nil {
		err = finishFrame(frame, DefaultMaxFrame)
	}
	if err == nil {
		_, err = p.w.Write(frame)
	}
	var payload []byte
	if err == nil {
		payload, err = readFrameInto(p.in, nil, DefaultMaxFrame)
	}
	var resp response
	var calls []sinkCall
	if err == nil {
		resp, calls, err = decodeResponse(p.bin, payload)
	}
	if err != nil {
		p.t.Fatal(err)
	}
	if resp.ID != p.id {
		p.t.Fatalf("response %d for request %d", resp.ID, p.id)
	}
	return &resp, calls
}

// close sends the close frame and checks that the serve loop ends cleanly.
func (p *rawPeer) close() {
	p.t.Helper()
	p.call(&request{Op: opClose})
	select {
	case err := <-p.served:
		if err != nil {
			p.t.Fatalf("serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		p.t.Fatal("serve did not return after close")
	}
}

// TestServeProtocol runs the worker serve loop over in-memory pipes and
// checks init, enact, step-to-done, and close — the protocol exercised
// without processes.
func TestServeProtocol(t *testing.T) {
	p := servePeer(t)
	if resp := p.init(&initRequest{Op: initOp, Init: &Config{Shard: 0, Seed: 42}, Codec: binaryWire}); resp.Err != "" || p.bin == nil {
		t.Fatalf("init: %q, echoed %q", resp.Err, resp.Codec)
	}
	// Payload-carrying ops with the payload missing must answer with a
	// protocol error, not crash the worker.
	if resp, _ := p.call(&request{Op: opEnact}); resp.Err == "" {
		t.Fatal("enact without a descriptor succeeded")
	}
	if resp, _ := p.call(&request{Op: opDerive}); resp.Err == "" {
		t.Fatal("derive without a config succeeded")
	}
	w, err := skeleton.Generate(skeleton.BagOfTasks(3, skeleton.Constant(30)), 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, calls := p.call(&request{Op: opEnact, Desc: &Descriptor{
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
	if !slices.ContainsFunc(calls, func(c sinkCall) bool { return !c.done && c.rec.State == "ENACTING" }) {
		t.Fatal("enact response carried no ENACTING trace event")
	}
	var done *core.Report
	for i := 0; i < 10000 && done == nil; i++ {
		resp, calls := p.call(&request{Op: opStep, Max: 64})
		if resp.Err != "" {
			t.Fatalf("step: %s", resp.Err)
		}
		for _, c := range calls {
			if c.done && c.key == 1 {
				done = c.report
			}
		}
		if resp.Drained {
			break
		}
	}
	if done == nil || done.UnitsDone != 3 {
		t.Fatalf("completion over the wire: %+v", done)
	}
	p.close()
}
