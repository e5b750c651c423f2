package backend

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"aimes/internal/core"
	"aimes/internal/sim"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// roundTripRequest pushes in through the binary codec and returns the
// decoded copy.
func roundTripRequest(t *testing.T, in *request) request {
	t.Helper()
	buf, err := newBinaryCodec().AppendRequest(nil, in)
	if err != nil {
		t.Fatalf("encode request: %v", err)
	}
	var out request
	if err := newBinaryCodec().DecodeRequest(buf, &out); err != nil {
		t.Fatalf("decode request: %v", err)
	}
	return out
}

// roundTripResponse pushes in through the binary codec and the parent's
// dispatch path, returning the decoded fields (Events left nil) and the
// callbacks the events made.
func roundTripResponse(t *testing.T, in *response) (response, []sinkCall) {
	t.Helper()
	buf, err := newBinaryCodec().AppendResponse(nil, in)
	if err != nil {
		t.Fatalf("encode response: %v", err)
	}
	out, calls, err := decodeResponse(newBinaryCodec(), buf)
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return out, calls
}

// fuzzPayloads builds the structured payloads from fuzzed parts: up to 31
// tasks named after name, durations from d and e (negative, or beyond 2^53
// ns, as the fuzzer likes), f in every float field, and every list and map
// nil, empty or filled as two bits of shape say.
func fuzzPayloads(tasks uint8, name string, d, e int64, f float64, shape uint32) (*Descriptor, *core.Report) {
	form := func(k int) uint32 { return shape >> (2 * (k % 16)) & 3 } // 0 nil, 1 empty, else filled
	strs := func(k int, ss ...string) []string {
		switch form(k) {
		case 0:
			return nil
		case 1:
			return []string{}
		}
		return ss
	}
	files := func(k int, fs ...skeleton.File) []skeleton.File {
		switch form(k) {
		case 0:
			return nil
		case 1:
			return []skeleton.File{}
		}
		return fs
	}
	w := &skeleton.Workload{Name: name, Stages: strs(0, name, `stage "1"`)}
	if form(1) != 0 {
		w.Tasks = []skeleton.Task{}
	}
	for i := 0; form(1) > 1 && i < int(tasks%32); i++ {
		id := fmt.Sprintf("%s.%05d", name, i)
		w.Tasks = append(w.Tasks, skeleton.Task{
			ID: id, Stage: name, Index: i, Cores: int(e), Duration: time.Duration(d + int64(i)*e),
			Inputs:  files(2+i, skeleton.File{Name: id + ".in", Bytes: d}),
			Outputs: files(3+i, skeleton.File{Name: id + ".out", Bytes: e, Producer: id}),
			Deps:    strs(4+i, name, fmt.Sprintf("%s.%05d", name, i/2)),
		})
	}
	s := core.Strategy{
		Binding: core.LateBinding, Scheduler: core.SchedBackfill, Pilots: int(tasks),
		Resources: strs(5, name, "stampede"), PilotCores: int(e), PilotWalltime: time.Duration(d),
		EstTx: time.Duration(e), EstTs: time.Duration(-d), EstTrp: time.Duration(d ^ e),
	}
	desc := &Descriptor{Key: int(d), MigratedFrom: int(e), Descriptor: core.Descriptor{
		Workload: w,
		Config: core.StrategyConfig{
			Binding: core.EarlyBinding, Pilots: int(tasks), AutoPilots: tasks%2 == 1,
			Selection: core.SelectFixed, FixedResources: strs(6, name),
		},
	}}
	if tasks%3 == 0 {
		desc.Strategy = &s
	}
	if tasks%5 == 0 {
		desc.Adaptive = &core.AdaptiveConfig{Patience: time.Duration(d), MaxExtraPilots: int(e), ReplaceLostPilots: true}
	}
	r := &core.Report{
		Strategy: s, TTC: time.Duration(d), Tw: time.Duration(e), Tx: time.Duration(-d), Ts: time.Duration(-e),
		UnitsDone: int(tasks), UnitsFailed: int(d), UnitsCanceled: int(e), TotalRestarts: 1,
		PilotsActivated: 2, ExtraPilots: int(-e),
		Throughput: f, CoreHours: f * 2, BusyCoreHours: -f, Efficiency: f / 3,
	}
	if form(7) != 0 {
		r.PilotWaits = map[string]time.Duration{}
	}
	if form(7) > 1 {
		r.PilotWaits[name+".p0"], r.PilotWaits[name+".p1"] = time.Duration(d), time.Duration(e)
	}
	if form(8) != 0 {
		r.UnitsByResource = map[string]int{}
	}
	if form(8) > 1 {
		r.UnitsByResource[name], r.UnitsByResource["stampede"] = int(d), int(e)
	}
	return desc, r
}

// FuzzCodecRoundTrip is the binary codec's round-trip property: for any
// frame value, decode(encode(v)) is v — a response's events as the
// callbacks the parent's dispatch makes from them. The fuzzer drives every
// frame shape: each known op, with and without structured payloads (their
// task counts, durations, names, floats and nil-versus-empty lists fuzzed
// too), responses with trace/done event batches, and the error paths. A
// value JSON cannot encode (NaN, ±Inf in a report) is refused.
func FuzzCodecRoundTrip(f *testing.F) {
	kinds := []byte{kindTrace, kindDone}
	f.Add(uint64(1), byte(2), int64(64), int64(3), "deadline", byte(0), "s0-j7",
		"pilot.stampede", "PENDING_ACTIVE", "cores=128", int64(1234567890),
		"", "", int64(5), true, int64(7), byte(3),
		uint8(8), "bot-8", 1.15, uint32(0xffffffff))
	f.Add(uint64(1<<40), byte(1), int64(-1), int64(-9), "", byte(1), "",
		"unit.0042", "EXECUTING", "", int64(-50), "backend: boom",
		"no job 99 on this shard", int64(0), false, int64(0), byte(1),
		uint8(30), `q"uo\te`, -0.5, uint32(0x5555aaaa))
	f.Add(uint64(0), byte(0), int64(0), int64(0), "  ", byte(0), "ns",
		"", "", "\x00\x01\xc3\xa9\xff", int64(1), "é", "ø",
		int64(1<<31), true, int64(-1<<62), byte(2),
		uint8(0), "\xfe", 0.0, uint32(0))
	f.Add(uint64(2), byte(8), int64(1), int64(1), "", byte(1), "s1-j2",
		"", "", "", int64(1<<53+1), "", "",
		int64(-1<<53-3), false, int64(-1<<60), byte(3),
		uint8(17), "stage-ø<&>", 1.7e308, uint32(0x9999))
	// A frame whose 40 records repeat one string in every field, and one
	// whose records each use strings no other record does.
	f.Add(uint64(3), byte(2), int64(512), int64(1), "", byte(0), "same",
		"same", "same", "same", int64(1e12), "", "",
		int64(40), false, int64(-1e9), byte(2),
		uint8(40), "bot", 1.0, uint32(0xffffffff))
	f.Add(uint64(4), byte(2), int64(512), int64(2), "", byte(0), "s0-j4",
		"pilot.comet.s0-j4-2", "PENDING", "comet.0004", int64(7e11), "", "",
		int64(40), true, int64(3e9), byte(6),
		uint8(40), "bot", 2.0, uint32(0xffffffff))
	f.Fuzz(func(t *testing.T, id uint64, opCode byte, maxv, key int64,
		reason string, kindCode byte, ns, entity, state, detail string, tns int64,
		errS, diag string, fired int64, drained bool,
		now int64, blobs byte, tasks uint8, name string, fl float64, shape uint32) {
		op, kind := opEnact+opCode%(opClose-opEnact+1), kinds[kindCode%2]
		desc, report := fuzzPayloads(tasks, name, tns, now, fl, shape)
		finite := true
		for _, v := range []float64{report.Throughput, report.CoreHours, report.BusyCoreHours, report.Efficiency} {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		req := &request{ID: id, Op: op, Max: int(maxv), Key: int(key), Reason: reason}
		if blobs&1 != 0 {
			req.Desc = desc
			req.Workload = desc.Workload
			req.Config = &desc.Config
			// The chaos event rides as a JSON blob, which would replace
			// invalid UTF-8 in its target; the protocol only sends names.
			target := strings.ToValidUTF8(reason, "?")
			req.Chaos = &ChaosEvent{
				After: time.Duration(tns), Action: ChaosSurge, Target: target,
				WaitFactor: float64(fired), Jobs: int(maxv), Duration: time.Duration(now),
			}
		}
		if got := roundTripRequest(t, req); !reflect.DeepEqual(&got, req) {
			t.Fatalf("request changed in a round trip:\nsent:    %+v\ndecoded: %+v", req, &got)
		}

		resp := &response{
			ID: id, Err: errS, Diag: diag,
			Fired: int(fired), Drained: drained,
		}
		if blobs&2 != 0 {
			rec := trace.Record{Time: sim.Time(tns), Entity: entity, State: state, Detail: detail}
			resp.Events = []wireEvent{
				{Kind: kind, Key: int(key), NS: ns, Rec: &rec},
				{Kind: kindDone, Key: int(key), Report: report},
			}
			// More records, tasks%64 of them, going back in time by now:
			// each the first one's strings again, or, with blobs&4, strings
			// no other record uses.
			for i := range int(tasks % 64) {
				r := rec
				r.Time -= sim.Time(int64(i+1) * now)
				if blobs&4 != 0 {
					sfx := fmt.Sprintf(".%d", i)
					r.Entity, r.State, r.Detail = entity+sfx, state+sfx, detail+sfx
				}
				resp.Events = append(resp.Events, wireEvent{Kind: kindTrace, Key: int(key) + i, NS: ns, Rec: &r})
			}
			resp.Enacted = &Enacted{Namespace: ns, Strategy: report.Strategy}
			resp.Strategy = &report.Strategy
		}
		if _, err := newBinaryCodec().AppendResponse(nil, resp); err != nil {
			if blobs&2 != 0 && !finite {
				return // the report's NaN or ±Inf is refused, as json.Marshal refuses it
			}
			t.Fatalf("encode response: %v", err)
		}
		if blobs&2 != 0 && !finite {
			t.Fatalf("a report holding %v encoded", report)
		}
		got, calls := roundTripResponse(t, resp)
		want := *resp
		want.Events = nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("response changed in a round trip:\nsent:    %+v\ndecoded: %+v", want, got)
		}
		if w := wantCalls(resp.Events); !reflect.DeepEqual(calls, w) {
			t.Fatalf("dispatch made %+v, want %+v", calls, w)
		}
	})
}
