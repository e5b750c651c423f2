package backend

import (
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
		t.Fatalf("%s: encode request: %v", c.Name(), err)
	}
	var out request
	if err := c.DecodeRequest(buf, &out); err != nil {
		t.Fatalf("%s: decode request: %v", c.Name(), err)
	}
	return out
}

func roundTripResponse(t *testing.T, c codec, in *response) response {
	t.Helper()
	buf, err := c.AppendResponse(nil, in)
	if err != nil {
		t.Fatalf("%s: encode response: %v", c.Name(), err)
	}
	var out response
	if err := c.DecodeResponse(buf, &out); err != nil {
		t.Fatalf("%s: decode response: %v", c.Name(), err)
	}
	return out
}

// FuzzCodecRoundTrip is the codec-equivalence property behind negotiation:
// for any frame value, decode(encode(v)) through the JSON codec and through
// the binary codec yield the same value — so the codec a session lands on
// is a wire-efficiency choice, never a semantics choice. The fuzzer drives
// every frame shape: requests with and without structured payloads,
// responses with trace/done event batches, negotiation echoes, and the
// error paths.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint64(1), "step", int64(64), int64(3), "deadline", "t", "s0-j7",
		"pilot.stampede", "PENDING_ACTIVE", "cores=128", int64(1234567890),
		"", "", "binary", int64(5), true, int64(99), int64(7), byte(3))
	f.Add(uint64(1<<40), "enact", int64(-1), int64(-9), "", "d", "",
		"unit.0042", "EXECUTING", "", int64(-50), "backend: boom",
		"no job 99 on this shard", "json", int64(0), false, int64(-1), int64(0), byte(1))
	f.Add(uint64(0), "", int64(0), int64(0), "  ", "x", "ns",
		"", "", "\x00\x01\xc3\xa9", int64(1), "é", "ø", "yaml",
		int64(1<<31), true, int64(1<<62), int64(-1<<62), byte(2))
	f.Fuzz(func(t *testing.T, id uint64, op string, maxv, key int64,
		reason, kind, ns, entity, state, detail string, tns int64,
		errS, diag, codecName string, fired int64, drained bool,
		seed, now int64, blobs byte) {
		// encoding/json replaces invalid UTF-8 with U+FFFD; the binary codec
		// carries raw bytes. Both round-trip within themselves, but the
		// cross-codec property only holds for valid strings — which is all
		// the protocol ever sends.
		for _, s := range []string{op, reason, kind, ns, entity, state, detail, errS, diag, codecName} {
			if !utf8.ValidString(s) {
				t.Skip("invalid UTF-8 is normalized by the JSON codec")
			}
		}
		req := &request{ID: id, Op: op, Max: int(maxv), Key: int(key), Reason: reason, Codec: codecName}
		if blobs&1 != 0 {
			// The structured payloads travel as JSON blobs in both codecs, so
			// fixed-but-rich values exercise them fully; the fuzzed scalars
			// cover the fields with codec-specific encodings.
			w, err := skeleton.Generate(skeleton.BagOfTasks(3, skeleton.Constant(30)), 1)
			if err != nil {
				t.Fatal(err)
			}
			req.Init = &Config{Shard: int(key), Seed: seed, Sites: site.DefaultTestbed()[:1]}
			req.Desc = &Descriptor{
				Key: int(key), MigratedFrom: -1,
				Descriptor: core.Descriptor{
					Workload: w,
					Config:   core.StrategyConfig{Binding: core.LateBinding, Scheduler: core.SchedBackfill, Pilots: 2},
				},
			}
			req.Report = &core.Report{TTC: time.Duration(tns), UnitsDone: int(fired)}
			req.Workload = w
			req.Config = &core.StrategyConfig{Pilots: 3, AutoPilots: drained}
			req.Chaos = &ChaosEvent{
				After: time.Duration(tns), Action: ChaosSurge, Target: reason,
				WaitFactor: float64(fired), Jobs: int(maxv), Duration: time.Duration(now),
			}
		}
		jr := roundTripRequest(t, jsonCodec{}, req)
		br := roundTripRequest(t, newBinaryCodec(), req)
		if !reflect.DeepEqual(jr, br) {
			t.Fatalf("request diverged across codecs:\njson:   %+v\nbinary: %+v", jr, br)
		}

		resp := &response{
			ID: id, Err: errS, Diag: diag, Codec: codecName,
			Fired: int(fired), Drained: drained,
		}
		if blobs&2 != 0 {
			rec := trace.WireRecord{Time: sim.Time(tns), Entity: entity, State: state, Detail: detail}
			resp.Events = []wireEvent{
				{Kind: kind, Key: int(key), NS: ns, Rec: &rec},
				{Kind: eventDone, Key: int(key), Report: &core.Report{TTC: time.Duration(now), UnitsDone: int(fired)}},
				{Kind: eventTrace, Key: 0},
			}
			resp.Enacted = &Enacted{Namespace: ns, Strategy: core.Strategy{Pilots: 2, Resources: []string{"stampede", "gordon"}}}
			resp.Strategy = &core.Strategy{Binding: core.LateBinding, PilotWalltime: time.Duration(tns)}
		}
		jresp := roundTripResponse(t, jsonCodec{}, resp)
		bresp := roundTripResponse(t, newBinaryCodec(), resp)
		if !reflect.DeepEqual(jresp, bresp) {
			t.Fatalf("response diverged across codecs:\njson:   %+v\nbinary: %+v", jresp, bresp)
		}
	})
}
