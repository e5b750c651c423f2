package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"aimes"
	"aimes/internal/skeleton"
)

// bagDocument is a four-task workload's interchange document, compact.
func bagDocument(t testing.TB) []byte {
	t.Helper()
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), 1)
	if err != nil {
		t.Fatal(err)
	}
	return w.AppendMiddlewareJSON(nil)
}

// edgeFloats sit on both sides of both of encoding/json's float format
// cut-offs, or need all seventeen digits.
var edgeFloats = []float64{0, 1e-7, 9.99e-7, 1e-6, 0.1, 1e20, 9.99e20, 1e21, -1e21, 1.5e300, -1e-7, math.SmallestNonzeroFloat64, 8.000000000000002}

// edgeInts sit on both sides of float64's exact-integer range and at the
// ends of int64: a reader that went through float64 would round them.
var edgeInts = []int64{0, 1, -1, 1<<53 - 1, 1 << 53, 1<<53 + 1, -(1 << 53) - 1, 1e15 + 1, 1e17 + 3, -1e18 - 7, math.MaxInt64 - 1, math.MaxInt64, math.MinInt64}

// odd are strings with every kind of character encoding/json escapes,
// replaces or passes through.
var odd = []string{`a"b\c`, "<b>&amp;", "2 pilot(s) × 2 cores", "line\xe2\x80\xa8sep", "bad\xffutf8", "tab\tnul\x00", "日本語"}

// codecRequests are submissions the table and the fuzz seeds share: every
// optional part absent and present, lists nil, empty and full, strings json
// escapes, negative durations and numbers, and integers at the edges.
func codecRequests(t testing.TB) []SubmitRequest {
	doc := bagDocument(t)
	reqs := []SubmitRequest{
		{Workload: doc},
		{
			Workload: doc,
			Config: aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 3,
				AutoPilots: true, Selection: aimes.SelectFixed, FixedResources: append([]string{"comet"}, odd...)},
			Strategy: &aimes.Strategy{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2,
				Resources: []string{"stampede", "comet"}, PilotCores: 16, PilotWalltime: time.Hour,
				EstTx: -time.Second, EstTs: 1, EstTrp: math.MaxInt64},
			Adaptive:  &aimes.AdaptiveConfig{Patience: time.Minute, MaxExtraPilots: 2, ReplaceLostPilots: true, MaxReplacements: -1},
			Placement: "pinned", Shard: 7, Migrate: "never",
		},
		{
			Workload: doc, Config: aimes.StrategyConfig{FixedResources: []string{}, Pilots: math.MinInt},
			Strategy: &aimes.Strategy{Resources: []string{}}, Adaptive: &aimes.AdaptiveConfig{}, Shard: -1,
		},
		{Workload: doc, Placement: odd[3], Migrate: odd[4]},
	}
	for _, n := range edgeInts {
		reqs = append(reqs, SubmitRequest{Workload: doc, Config: aimes.StrategyConfig{Pilots: int(n)},
			Adaptive: &aimes.AdaptiveConfig{Patience: time.Duration(n)}})
	}
	return reqs
}

// codecInfos are snapshots the table and the fuzz seeds share: a report
// absent, with nil maps and with empty ones, map keys out of order and needing
// escapes, times zero, far in the future and in other zones, and the report's
// floats at the cut-offs.
func codecInfos() []JobInfo {
	at := time.Date(2026, 10, 15, 8, 30, 0, 123456789, time.UTC)
	report := &aimes.Report{
		Strategy: aimes.Strategy{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2,
			Resources: []string{"stampede", "comet"}, PilotCores: 8, PilotWalltime: 39 * time.Minute, EstTx: time.Minute},
		TTC: 90 * time.Minute, Tw: 80 * time.Minute, Tx: 10 * time.Minute, Ts: -1,
		UnitsDone: 12, UnitsFailed: 1, UnitsCanceled: 2, TotalRestarts: 3,
		PilotWaits:      map[string]time.Duration{"pilot.stampede.s0-j1-1": time.Second, "pilot.comet.s0-j1-0": -2},
		UnitsByResource: map[string]int{"stampede": 7, "comet": 5, odd[2]: 1},
		PilotsActivated: 2, ExtraPilots: 1,
		Throughput: 8.000000000000002, CoreHours: 1e21, BusyCoreHours: 1e-7, Efficiency: 0.5,
	}
	infos := []JobInfo{
		{ID: "j-1", Tenant: "alice", State: "queued", SubmittedAt: at},
		{ID: "j-7af2d8e65c6eda5b58c40ad8", Tenant: "bob", State: "done", Final: true, Shard: 1, Namespace: "s1-j4",
			Migrated: true, SubmittedAt: time.Now(), Report: report, EventsDropped: 3},
		{ID: odd[4], Tenant: odd[0], State: odd[2], Final: true, SubmittedAt: at.In(time.FixedZone("", 5*3600+30*60)),
			Error: `pilot "x" <lost> & gone`, Report: &aimes.Report{}, EventsDropped: -1},
		{ID: "j-3", Report: &aimes.Report{Strategy: aimes.Strategy{Resources: odd},
			PilotWaits: map[string]time.Duration{odd[0]: 1, odd[1]: 2}, UnitsByResource: map[string]int{odd[3]: 3, odd[4]: 4}}},
		{ID: "j-4", Report: &aimes.Report{Strategy: aimes.Strategy{Resources: []string{}},
			PilotWaits: map[string]time.Duration{}, UnitsByResource: map[string]int{}}},
		{ID: "far", SubmittedAt: time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)},
		{ID: "west", SubmittedAt: at.In(time.FixedZone("", -(23*3600 + 59*60)))},
	}
	for _, f := range edgeFloats {
		infos = append(infos, JobInfo{ID: "f", Report: &aimes.Report{Throughput: f, CoreHours: -f, BusyCoreHours: f / 3, Efficiency: f * 3}})
	}
	return infos
}

// unencodable are snapshots encoding/json refuses.
func unencodable() []JobInfo {
	return []JobInfo{
		{Report: &aimes.Report{Throughput: math.NaN()}},
		{Report: &aimes.Report{Efficiency: math.Inf(-1)}},
		{Report: &aimes.Report{CoreHours: math.Inf(1)}},
		{SubmittedAt: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		{SubmittedAt: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
		{SubmittedAt: time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600))},
		{SubmittedAt: time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("", -100*3600))},
	}
}

// appendSubmission appends what follows the workload in req's submission.
func appendSubmission(dst []byte, req *SubmitRequest) ([]byte, error) {
	w := wire{out: dst}
	w.submission(req)
	return w.out, w.err
}

// readRequest is ParseSubmitRequest, and whether it took the one-pass path:
// only that path leaves the request's workload in the body.
func readRequest(b []byte) (req SubmitRequest, w *aimes.Workload, werr error, fast bool) {
	p, w, werr := ParseSubmitRequest(b)
	if p != nil {
		req = *p
		fast = len(req.Workload) > 0 && len(b) > len(workloadKey) && &req.Workload[0] == &b[len(workloadKey)]
	}
	return req, w, werr, fast
}

// readInfo is the one-pass snapshot reader alone.
func readInfo(tab *internTable, b []byte) (info JobInfo, ok bool) {
	r := reader(b, tab)
	r.jobInfo(&info)
	return info, r.ok && r.in.End()
}

// sameAsJSON fails unless both encodings failed, or both succeeded with the
// same bytes.
func sameAsJSON(t *testing.T, what any, got []byte, gerr error, want []byte, werr error) bool {
	t.Helper()
	if (gerr == nil) != (werr == nil) || gerr == nil && !bytes.Equal(got, want) {
		t.Errorf("%+v:\n got %s (%v)\nwant %s (%v)", what, got, gerr, want, werr)
		return false
	}
	return gerr == nil
}

// TestCodecMatchesJSON holds both appenders to json.Marshal byte for byte,
// errors included, and both readers to json.Unmarshal on what the appenders
// write: each must take it unless a string in it is escaped, and read what
// encoding/json reads.
func TestCodecMatchesJSON(t *testing.T) {
	for _, req := range codecRequests(t) {
		want, werr := json.Marshal(&req)
		got, gerr := appendSubmission([]byte(workloadKey+string(req.Workload)), &req)
		if !sameAsJSON(t, req, got, gerr, want, werr) {
			continue
		}
		fast, w, werr, ok := readRequest(got)
		if !ok {
			if !escaped(got) {
				t.Errorf("the reader declined %s", got)
			}
			continue
		}
		ref, refW, err := ParseSubmitRequest(append([]byte(" "), got...)) // not the one-pass form
		if werr != nil || err != nil || !reflect.DeepEqual(fast, *ref) || !reflect.DeepEqual(w, refW) {
			t.Errorf("%s: read as %+v (%v), encoding/json reads %+v (%v)", got, fast, werr, ref, err)
		}
	}

	var tab internTable
	for _, info := range codecInfos() {
		want, werr := json.Marshal(&info)
		got, gerr := AppendJobInfo([]byte("prefix"), &info)
		if !sameAsJSON(t, info, got, gerr, append([]byte("prefix"), want...), werr) {
			continue
		}
		got = got[len("prefix"):]
		fast, ok := readInfo(&tab, got)
		if !ok {
			if !escaped(got) {
				t.Errorf("the reader declined %s", got)
			}
			continue
		}
		var ref JobInfo
		if err := json.Unmarshal(got, &ref); err != nil || !reflect.DeepEqual(fast, ref) {
			t.Errorf("%s: read as %+v, encoding/json reads %+v (%v)", got, fast, ref, err)
		}
	}
	for _, info := range unencodable() {
		want, werr := json.Marshal(&info)
		got, gerr := AppendJobInfo(nil, &info)
		sameAsJSON(t, info, got, gerr, want, werr)
	}
}

// escaped reports whether b holds an escaped string, which the readers
// leave to encoding/json.
func escaped(b []byte) bool { return bytes.IndexByte(b, '\\') >= 0 }

// hollow sets every list and map reachable from v to nil, or when empty to
// an empty one; a workload document is left as it is.
func hollow(v reflect.Value, empty bool) {
	switch v.Kind() {
	case reflect.Slice:
		if v.Type() == reflect.TypeOf(json.RawMessage{}) {
			return
		}
		v.SetZero()
		if empty {
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		}
	case reflect.Map:
		v.SetZero()
		if empty {
			v.Set(reflect.MakeMap(v.Type()))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			hollow(v.Elem(), empty)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				hollow(v.Field(i), empty)
			}
		}
	}
}

// TestSubmitBodyWithRetiredKeys: a body from a client that still sends the
// strategy config's retired knobs (MaxPilots, WalltimeSlack,
// DispatchOverhead) is not the form Submit writes, so encoding/json reads it
// and ignores the three keys: it parses to the request without them.
func TestSubmitBodyWithRetiredKeys(t *testing.T) {
	doc := string(bagDocument(t))
	old := workloadKey + doc + `,"config":{"Binding":1,"Scheduler":2,"Pilots":3,"AutoPilots":false,"MaxPilots":5,` +
		`"Selection":0,"FixedResources":null,"WalltimeSlack":1.15,"DispatchOverhead":350000000}}`
	req, w, err := ParseSubmitRequest([]byte(old))
	if err != nil {
		t.Fatal(err)
	}
	want := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 3}
	if !reflect.DeepEqual(req.Config, want) || w == nil || w.TotalTasks() == 0 {
		t.Fatalf("config %+v, workload %v; want %+v and the document's tasks", req.Config, w, want)
	}
}

// TestCodecKnowsEveryField is the guard on the structs the codec spells out
// field by field — SubmitRequest, JobInfo, and within them StrategyConfig,
// Strategy, AdaptiveConfig and Report: with every field set by reflection,
// then every list and map nil, then empty, each appender writes what
// json.Marshal writes and each reader gives back the value written. A field
// added to any of them fails here until both sides of the codec carry it.
func TestCodecKnowsEveryField(t *testing.T) {
	for _, variant := range []string{"full", "nil lists and maps", "empty lists and maps"} {
		var req SubmitRequest
		var info JobInfo
		n := 0
		fill(t, reflect.ValueOf(&req).Elem(), &n)
		fill(t, reflect.ValueOf(&info).Elem(), &n)
		if variant != "full" {
			hollow(reflect.ValueOf(&req).Elem(), variant != "nil lists and maps")
			hollow(reflect.ValueOf(&info).Elem(), variant != "nil lists and maps")
		}
		want, werr := json.Marshal(&req)
		got, gerr := appendSubmission([]byte(workloadKey+string(req.Workload)), &req)
		if sameAsJSON(t, req, got, gerr, want, werr) {
			if back, _, _, ok := readRequest(got); !ok || !reflect.DeepEqual(back, req) {
				t.Errorf("%s: SubmitRequest read back (%v) as %+v, want %+v", variant, ok, back, req)
			}
		}
		want, werr = json.Marshal(&info)
		got, gerr = AppendJobInfo(nil, &info)
		if sameAsJSON(t, info, got, gerr, want, werr) {
			if back, ok := readInfo(new(internTable), got); !ok || !reflect.DeepEqual(back, info) {
				t.Errorf("%s: JobInfo read back (%v) as %+v, want %+v", variant, ok, back, info)
			}
		}
	}
}

// FuzzSubmitRequest holds the one-pass submission reader to encoding/json:
// whatever it accepts, json.Unmarshal decodes to the same request, and
// skeleton.ParseWorkload reads its workload to the same workload and verdict.
func FuzzSubmitRequest(f *testing.F) {
	for _, req := range codecRequests(f) {
		if body, err := appendSubmission([]byte(workloadKey+string(req.Workload)), &req); err == nil {
			f.Add(body)
		}
	}
	doc := string(bagDocument(f))
	cfg := `,"config":{"Binding":0,"Scheduler":0,"Pilots":0,"AutoPilots":false,"Selection":0,"FixedResources":null}`
	for _, s := range []string{
		workloadKey + doc + cfg + "}\n", workloadKey + doc + cfg + "}x", workloadKey + doc + cfg + "} {}",
		workloadKey + doc + cfg + `,"shard":0}`, workloadKey + doc + cfg + `,"strategy":null}`, workloadKey + doc + cfg + `,"shard":1.0}`,
		workloadKey + `null` + cfg + "}", workloadKey + `{"name":"x","stages":null,"tasks":null}` + cfg + "}",
		workloadKey + `{"name":"","stages":null,"tasks":[{"id":"a","stage":"s","index":0,"cores":0,"duration_s":1}]}` + cfg + "}",
		`{"config":{},"workload":` + doc + "}", `{ "workload":` + doc + cfg + "}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		req, w, werr, ok := readRequest(b)
		if !ok {
			return
		}
		var ref SubmitRequest
		if err := json.Unmarshal(b, &ref); err != nil {
			t.Fatalf("accepted %q, which encoding/json rejects: %v", b, err)
		}
		if !reflect.DeepEqual(req, ref) {
			t.Fatalf("read %q as %+v, encoding/json as %+v", b, req, ref)
		}
		refW, refErr := skeleton.ParseWorkload(ref.Workload)
		if !reflect.DeepEqual(w, refW) || fmt.Sprint(werr) != fmt.Sprint(refErr) {
			t.Fatalf("workload of %q read as %+v (%v), by ParseWorkload as %+v (%v)", b, w, werr, refW, refErr)
		}
	})
}

// FuzzJobInfo holds the one-pass snapshot reader to encoding/json: whatever
// it accepts, json.Unmarshal decodes to the same snapshot.
func FuzzJobInfo(f *testing.F) {
	infos := codecInfos()
	for i := range infos {
		if b, err := AppendJobInfo(nil, &infos[i]); err == nil {
			f.Add(b)
		}
	}
	stream, _ := captured(f)
	_, done, _ := bytes.Cut(stream, []byte("event: done\ndata: "))
	done, _, _ = bytes.Cut(done, []byte("\n"))
	f.Add(done)
	for _, s := range []string{
		`{"id":"j","tenant":"t","state":"s","final":false,"shard":0,"submitted_at":"0001-01-01T00:00:00Z"}`,
		`{"id":"j","tenant":"t","state":"s","final":false,"shard":0,"submitted_at":"2026-10-15T08:30:00+25:00"}`,
		`{"id":"j","tenant":"t","state":"s","final":false,"shard":0,"submitted_at":"2026-10-15 08:30:00Z"}`,
		`{"id":"j","tenant":"t","state":"s","final":false,"shard":0,"submitted_at":"0001-01-01T00:00:00Z","report":null}`,
		`{"id":"j","tenant":"t","state":"s","final":false,"shard":0,"submitted_at":"0001-01-01T00:00:00Z","events_dropped":1e3}`,
		`{"id":"j","tenant":"t","state":"s","final":false,"shard":0,"submitted_at":"0001-01-01T00:00:00Z"}` + "\n\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var tab internTable
		info, ok := readInfo(&tab, b)
		if !ok {
			return
		}
		var ref JobInfo
		if err := json.Unmarshal(b, &ref); err != nil {
			t.Fatalf("accepted %q, which encoding/json rejects: %v", b, err)
		}
		if !reflect.DeepEqual(info, ref) {
			t.Fatalf("read %q as %+v, encoding/json as %+v", b, info, ref)
		}
	})
}

// TestSubmitAndReplyAllocations pins the codec's cost per job: a submission
// costs its one buffer, the daemon's snapshot nothing beyond the buffer it
// is given, and reading the terminal snapshot — once
// the Client's table holds its tenant, state and resource names — costs the
// snapshot, its report, its ID and namespace, and the report's resource list,
// maps and pilot IDs. A reader that knows the job's ID — a stream's "done"
// snapshot, its "submitted" one having named it — keeps its own string and
// costs one object fewer. encoding/json cost 38 objects to decode that
// snapshot.
func TestSubmitAndReplyAllocations(t *testing.T) {
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(12, aimes.UniformDuration()), 1)
	if err != nil {
		t.Fatal(err)
	}
	req := SubmitOptions{Config: aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2},
		Placement: aimes.PlacePinned, Shard: 1}.request()
	info := codecInfos()[1]
	reply, err := AppendJobInfo(nil, &info)
	if err != nil {
		t.Fatal(err)
	}
	submit := testing.AllocsPerRun(100, func() {
		if _, err := appendSubmission(submitHead(w), &req); err != nil {
			t.Fatal(err)
		}
	})
	buf := make([]byte, 0, 2*len(reply))
	encode := testing.AllocsPerRun(100, func() {
		if _, err := AppendJobInfo(buf, &info); err != nil {
			t.Fatal(err)
		}
	})
	var c Client
	decode := testing.AllocsPerRun(100, func() {
		if _, err := c.tab.decodeInfo(reply, ""); err != nil {
			t.Fatal(err)
		}
	})
	id := strings.Clone(info.ID)
	known := testing.AllocsPerRun(100, func() {
		if _, err := c.tab.decodeInfo(reply, id); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations to encode a submission, %.0f to encode and %.0f to decode a %d-byte snapshot, %.0f knowing its ID", submit, encode, decode, len(reply), known)
	if submit != 1 || encode != 0 {
		t.Errorf("%.0f allocations to encode a submission and %.0f a snapshot, want 1 and 0", submit, encode)
	}
	if decode > 12 {
		t.Errorf("%.0f allocations to decode a snapshot, want at most 12", decode)
	}
	if known != decode-1 {
		t.Errorf("%.0f allocations to decode a snapshot whose ID the reader knows, want %.0f", known, decode-1)
	}
	for _, given := range []string{id, "another job"} {
		got, err := c.tab.decodeInfo(reply, given)
		if err != nil {
			t.Fatal(err)
		}
		if shared := unsafe.StringData(got.ID) == unsafe.StringData(given); got.ID != info.ID || shared != (given == id) {
			t.Errorf("decoding %s's snapshot given ID %q: ID %q, the given string: %v", info.ID, given, got.ID, shared)
		}
	}
}
