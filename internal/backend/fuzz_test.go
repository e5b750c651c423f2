package backend

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"aimes/internal/core"
	"aimes/internal/sim"
	"aimes/internal/site"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// roundTrip pushes v through one codec and returns the decoded copy.
func roundTripRequest(t *testing.T, c codec, in *request) request {
	t.Helper()
	buf, err := c.AppendRequest(nil, in)
	if err != nil {
		t.Fatalf("%T: encode request: %v", c, err)
	}
	var out request
	if err := c.DecodeRequest(buf, &out); err != nil {
		t.Fatalf("%T: decode request: %v", c, err)
	}
	return out
}

// roundTripResponse pushes in through one codec and the parent's dispatch
// path, returning the decoded fields (Events left nil) and the callbacks
// the events made.
func roundTripResponse(t *testing.T, c codec, in *response) (response, []sinkCall) {
	t.Helper()
	buf, err := c.AppendResponse(nil, in)
	if err != nil {
		t.Fatalf("%T: encode response: %v", c, err)
	}
	out, calls, err := decodeResponse(c, buf)
	if err != nil {
		t.Fatalf("%T: decode response: %v", c, err)
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

// encodesAlike reports whether both codecs encode v, failing the test when
// one refuses what the other takes (NaN and ±Inf are refused by both).
func encodesAlike(t *testing.T, encode func(codec) error) bool {
	t.Helper()
	jerr, berr := encode(jsonCodec{}), encode(newBinaryCodec())
	if (jerr == nil) != (berr == nil) {
		t.Fatalf("one codec refused the value: json %v, binary %v", jerr, berr)
	}
	return jerr == nil
}

// FuzzCodecRoundTrip is the codec-equivalence property behind negotiation:
// for any frame value, decode(encode(v)) through the JSON codec and through
// the binary codec yield the same value — a response's events as the
// callbacks the parent's dispatch makes from them — so the codec a session
// lands on is a wire-efficiency choice, never a semantics choice. The fuzzer drives
// every frame shape: requests with and without structured payloads (their
// task counts, durations, names, floats and nil-versus-empty lists fuzzed
// too), responses with trace/done event batches, negotiation echoes, and
// the error paths.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint64(1), "step", int64(64), int64(3), "deadline", "t", "s0-j7",
		"pilot.stampede", "PENDING_ACTIVE", "cores=128", int64(1234567890),
		"", "", "binary", int64(5), true, int64(99), int64(7), byte(3),
		uint8(8), "bot-8", 1.15, uint32(0xffffffff))
	f.Add(uint64(1<<40), "enact", int64(-1), int64(-9), "", "d", "",
		"unit.0042", "EXECUTING", "", int64(-50), "backend: boom",
		"no job 99 on this shard", "json", int64(0), false, int64(-1), int64(0), byte(1),
		uint8(30), `q"uo\te`, -0.5, uint32(0x5555aaaa))
	f.Add(uint64(0), "", int64(0), int64(0), "  ", "x", "ns",
		"", "", "\x00\x01\xc3\xa9", int64(1), "é", "ø", "yaml",
		int64(1<<31), true, int64(1<<62), int64(-1<<62), byte(2),
		uint8(0), "", 0.0, uint32(0))
	f.Add(uint64(2), "feedback", int64(1), int64(1), "", "d", "s1-j2",
		"", "", "", int64(1<<53+1), "", "", "binary/4",
		int64(-1<<53-3), false, int64(1), int64(-1<<60), byte(3),
		uint8(17), "stage-ø<&>", 1.7e308, uint32(0x9999))
	// A frame whose 40 records repeat one string in every field, and one
	// whose records each use strings no other record does.
	f.Add(uint64(3), "step", int64(512), int64(1), "", "t", "same",
		"same", "same", "same", int64(1e12), "", "", "",
		int64(40), false, int64(1), int64(-1e9), byte(2),
		uint8(40), "bot", 1.0, uint32(0xffffffff))
	f.Add(uint64(4), "step", int64(512), int64(2), "", "t", "s0-j4",
		"pilot.comet.s0-j4-2", "PENDING", "comet.0004", int64(7e11), "", "", "",
		int64(40), true, int64(1), int64(3e9), byte(6),
		uint8(40), "bot", 2.0, uint32(0xffffffff))
	f.Fuzz(func(t *testing.T, id uint64, op string, maxv, key int64,
		reason, kind, ns, entity, state, detail string, tns int64,
		errS, diag, codecName string, fired int64, drained bool,
		seed, now int64, blobs byte, tasks uint8, name string, fl float64, shape uint32) {
		// encoding/json replaces invalid UTF-8 with U+FFFD; the binary codec
		// carries raw bytes. Both round-trip within themselves, but the
		// cross-codec property only holds for valid strings — which is all
		// the protocol ever sends.
		for _, s := range []string{op, reason, kind, ns, entity, state, detail, errS, diag, codecName, name} {
			if !utf8.ValidString(s) {
				t.Skip("invalid UTF-8 is normalized by the JSON codec")
			}
		}
		desc, report := fuzzPayloads(tasks, name, tns, now, fl, shape)
		req := &request{ID: id, Op: op, Max: int(maxv), Key: int(key), Reason: reason, Codec: codecName}
		if blobs&1 != 0 {
			req.Init = &Config{Shard: int(key), Seed: seed, Sites: site.DefaultTestbed()[:1]}
			req.Desc = desc
			req.Workload = desc.Workload
			req.Config = &desc.Config
			req.Chaos = &ChaosEvent{
				After: time.Duration(tns), Action: ChaosSurge, Target: reason,
				WaitFactor: float64(fired), Jobs: int(maxv), Duration: time.Duration(now),
			}
		}
		if encodesAlike(t, func(c codec) error { _, err := c.AppendRequest(nil, req); return err }) {
			jr := roundTripRequest(t, jsonCodec{}, req)
			br := roundTripRequest(t, newBinaryCodec(), req)
			if !reflect.DeepEqual(jr, br) {
				t.Fatalf("request diverged across codecs:\njson:   %+v\nbinary: %+v", jr, br)
			}
		}

		resp := &response{
			ID: id, Err: errS, Diag: diag, Codec: codecName,
			Fired: int(fired), Drained: drained,
		}
		if blobs&2 != 0 {
			rec := trace.WireRecord{Time: sim.Time(tns), Entity: entity, State: state, Detail: detail}
			resp.Events = []wireEvent{
				{Kind: kind, Key: int(key), NS: ns, Rec: &rec},
				{Kind: eventDone, Key: int(key), Report: report},
				{Kind: eventTrace, Key: 0},
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
				resp.Events = append(resp.Events, wireEvent{Kind: eventTrace, Key: int(key) + i, NS: ns, Rec: &r})
			}
			resp.Enacted = &Enacted{Namespace: ns, Strategy: report.Strategy}
			resp.Strategy = &report.Strategy
		}
		if encodesAlike(t, func(c codec) error { _, err := c.AppendResponse(nil, resp); return err }) {
			jresp, jcalls := roundTripResponse(t, jsonCodec{}, resp)
			bresp, bcalls := roundTripResponse(t, newBinaryCodec(), resp)
			if !reflect.DeepEqual(jresp, bresp) {
				t.Fatalf("response diverged across codecs:\njson:   %+v\nbinary: %+v", jresp, bresp)
			}
			if !reflect.DeepEqual(jcalls, bcalls) {
				t.Fatalf("dispatch diverged across codecs:\njson:   %+v\nbinary: %+v", jcalls, bcalls)
			}
		}
	})
}
