package skeleton

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// readCompact is the compact reader over the whole of b: nil when it
// declines b, or when the workload fails validation.
func readCompact(b []byte) *Workload {
	r := JSONReader{b}
	if w, _ := r.Workload(); r.End() {
		return w
	}
	return nil
}

// referenceDoc is the interchange document as encoding/json sees it: what
// AppendMiddlewareJSON must write byte for byte.
func referenceDoc(w *Workload) wlJSON {
	doc := wlJSON{Name: w.Name, Stages: w.Stages}
	files := func(list []File) []wlFileJSON {
		var out []wlFileJSON
		for _, f := range list {
			out = append(out, wlFileJSON(f))
		}
		return out
	}
	for _, t := range w.Tasks {
		doc.Tasks = append(doc.Tasks, wlTaskJSON{
			ID:        t.ID,
			Stage:     t.Stage,
			Index:     t.Index,
			Cores:     t.Cores,
			DurationS: t.Duration.Seconds(),
			Inputs:    files(t.Inputs),
			Outputs:   files(t.Outputs),
			Deps:      t.Deps,
		})
	}
	return doc
}

// codecWorkloads are generated bag and multistage workloads plus one built
// by hand with every string encoding/json escapes and the durations at the
// edges of its float formats.
func codecWorkloads(t testing.TB) []*Workload {
	t.Helper()
	bag, err := Generate(BagOfTasks(8, Constant(60)), 3)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Generate(multistageApp(), 17)
	if err != nil {
		t.Fatal(err)
	}
	odd := []string{`<b>&amp;`, `say "hi"\now`, "café-µ", "line\u2028sep", "bad\xffutf8", "tab\there", "del\x7f"}
	hand := &Workload{Name: odd[0], Stages: odd}
	for i, d := range []time.Duration{time.Nanosecond, 100 * time.Nanosecond, time.Microsecond, 999 * time.Nanosecond,
		1500 * time.Millisecond, 0, math.MaxInt64, -time.Second} {
		hand.Tasks = append(hand.Tasks, Task{
			ID: fmt.Sprintf("%s.%d", odd[i%len(odd)], i), Stage: odd[(i+1)%len(odd)], Index: i - 2, Cores: i,
			Duration: d,
			Inputs:   []File{{Name: odd[(i+2)%len(odd)], Bytes: int64(i) << 40, Producer: odd[(i+3)%len(odd)]}},
			Outputs:  []File{},
			Deps:     odd[:i%3],
		})
	}
	return []*Workload{
		bag, multi, hand,
		{Name: "empty-stages", Stages: []string{}, Tasks: bag.Tasks[:1]},
		{Name: "nil-stages", Tasks: bag.Tasks[:1]},
		{Name: "no-tasks", Stages: []string{"s"}, Tasks: []Task{}},
	}
}

func TestAppendMiddlewareJSONMatchesJSON(t *testing.T) {
	for _, w := range codecWorkloads(t) {
		want, err := json.Marshal(referenceDoc(w))
		if err != nil {
			t.Fatal(err)
		}
		if got := w.AppendMiddlewareJSON([]byte("prefix")); string(got) != "prefix"+string(want) {
			t.Errorf("%q:\n got %s\nwant prefix%s", w.Name, got, want)
		}
		// WriteMiddlewareJSON writes what encoding/json's indenting encoder
		// writes, newline included.
		var got, ref bytes.Buffer
		if err := w.WriteMiddlewareJSON(&got); err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(&ref)
		enc.SetIndent("", "  ")
		if err := enc.Encode(referenceDoc(w)); err != nil {
			t.Fatal(err)
		}
		if got.String() != ref.String() {
			t.Errorf("%q: WriteMiddlewareJSON:\n got %s\nwant %s", w.Name, got.String(), ref.String())
		}
	}
	// Seconds no Duration reaches, on both sides of both format cut-offs.
	for _, f := range []float64{0, 1e-9, 1e-7, 9.99e-7, 1e-6, 1.5e-6, 0.1, 60, 1e20, 9.99e20, 1e21, 1.5e21, 1e300, -1e-7, -1e21, math.SmallestNonzeroFloat64} {
		want, _ := json.Marshal(f)
		if got := AppendJSONFloat(nil, f); string(got) != string(want) {
			t.Errorf("%g: got %s, want %s", f, got, want)
		}
	}
}

func TestMiddlewareJSONRoundTrip(t *testing.T) {
	app := multistageApp()
	w, err := Generate(app, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Both readers: the compact document takes readCompact, the indented one
	// encoding/json, and they must agree.
	roundTrip := func() *Workload {
		t.Helper()
		doc := w.AppendMiddlewareJSON(nil)
		if readCompact(doc) == nil {
			t.Fatal("compact reader declined the appender's document")
		}
		back, err := ParseWorkload(doc)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := w.WriteMiddlewareJSON(&buf); err != nil {
			t.Fatal(err)
		}
		indented, err := ParseWorkloadJSON(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, indented) {
			t.Fatalf("compact and indented documents read differently:\n%+v\n%+v", back, indented)
		}
		return back
	}
	back := roundTrip()
	if back.Name != w.Name || back.TotalTasks() != w.TotalTasks() {
		t.Fatalf("identity lost: %s/%d", back.Name, back.TotalTasks())
	}
	for i := range w.Tasks {
		a, b := w.Tasks[i], back.Tasks[i]
		if a.ID != b.ID || a.Duration != b.Duration || a.Stage != b.Stage {
			t.Fatalf("task %d identity lost: %+v vs %+v", i, a, b)
		}
		if a.InputBytes() != b.InputBytes() || a.OutputBytes() != b.OutputBytes() {
			t.Fatalf("task %d file sizes lost", i)
		}
		if !reflect.DeepEqual(a.Deps, b.Deps) {
			t.Fatalf("task %d deps lost", i)
		}
		for k := range a.Inputs {
			if a.Inputs[k].Producer != b.Inputs[k].Producer {
				t.Fatalf("task %d producer lost", i)
			}
		}
	}
	// Generated durations are whole seconds; a hand-written workload's need
	// not be. duration_s is a float, and a conversion that truncates brings
	// about one in fifty of these back a nanosecond short.
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 100; round++ {
		for i := range w.Tasks {
			w.Tasks[i].Duration = time.Minute + time.Duration(rng.Int63n(int64(29*time.Minute)))
		}
		for i, b := range roundTrip().Tasks {
			if a := w.Tasks[i]; a.Duration != b.Duration {
				t.Fatalf("round %d task %d: duration %d ns came back %d ns", round, i, a.Duration, b.Duration)
			}
		}
	}
}

func TestParseWorkloadJSONRejects(t *testing.T) {
	const task = `{"id":"a","stage":"s","index":0,"cores":1,"duration_s":1`
	cases := []string{
		``,
		`{"name": "", "tasks": []}`,
		`{"name": "x", "tasks": []}`,
		`{"name": "x", "tasks": [{"id": "", "cores": 1}]}`,
		`{"name": "x", "tasks": [{"id": "a", "cores": 0}]}`,
		`{"name": "x", "tasks": [{"id": "a", "cores": 1}, {"id": "a", "cores": 1}]}`,
		`{"name": "x", "tasks": [{"id": "a", "cores": 1, "duration_s": -1}]}`,
		`{"name": "x", "tasks": [{"id": "a", "cores": 1, "deps": ["ghost"]}]}`,
		`{"name": "x", "tasks": [{"id": "a", "cores": 1, "inputs": [{"name": "f", "bytes": -1}]}]}`,
		`{"name": "x", "tasks": [{"id": "a", "cores": 1, "inputs": [{"name": "f", "bytes": 1, "producer": "ghost"}]}]}`,
		`{"name": "x", "unknown": 1, "tasks": [{"id": "a", "cores": 1}]}`,
		`{"name":"x","tasks":[{"id":"a","cores":1}]} garbage`,
		`{"name":"x","tasks":[{"id":"a","cores":1}]}{"name":"x","tasks":[{"id":"a","cores":1}]}`,
		// The same verdicts in the compact reader's grammar.
		`{"name":"","stages":null,"tasks":[` + task + `}]}`,
		`{"name":"x","stages":null,"tasks":[` + task + `},` + task + `}]}`,
		`{"name":"x","stages":null,"tasks":[{"id":"a","stage":"s","index":0,"cores":0,"duration_s":1}]}`,
		`{"name":"x","stages":null,"tasks":[{"id":"a","stage":"s","index":0,"cores":1,"duration_s":-1}]}`,
		`{"name":"x","stages":null,"tasks":[` + task + `,"deps":["ghost"]}]}`,
		`{"name":"x","stages":null,"tasks":[` + task + `,"outputs":[{"name":"f","bytes":-1}]}]}`,
		`{"name":"x","stages":null,"tasks":[` + task + `,"inputs":[{"name":"f","bytes":1,"producer":"ghost"}]}]}`,
		`{"name":"x","stages":null,"tasks":[` + task + `}]} garbage`,
		`{"name":"x","stages":null,"tasks":[` + task + `}]}{"name":"x","stages":null,"tasks":[` + task + `}]}`,
	}
	for i, c := range cases {
		if _, err := ParseWorkloadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("case %d parsed successfully: %s", i, c)
		}
	}
	if _, err := ParseWorkload([]byte(`{"name":"x","stages":null,"tasks":[` + task + `}]}` + " \n\t\r")); err != nil {
		t.Errorf("trailing whitespace: %v", err)
	}
}

// TestParseWorkloadJSONAllocations pins the submit path's codec. The
// daemon's reader costs a fixed handful of objects per document whatever its
// size — the workload, the task slice, the file slab, the string arena and
// the ID index's slot table — on the bag-of-tasks documents the service
// benchmark submits (one input and one output per task): 6 at 8 tasks and 6
// at 16 (5 and 8 while the index was a map, which at 8 entries lived on the
// stack), where the encoding/json decode cost 10.5 per task and 9.1. The
// client's appender costs its one buffer.
func TestParseWorkloadJSONAllocations(t *testing.T) {
	for _, n := range []int{8, 16} {
		w, err := Generate(BagOfTasks(n, Constant(60)), 3)
		if err != nil {
			t.Fatal(err)
		}
		doc := w.AppendMiddlewareJSON(nil)
		if readCompact(doc) == nil {
			t.Fatal("compact reader declined the appender's document")
		}
		back, err := ParseWorkload(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, task := range back.Tasks {
			if len(task.Inputs) != 1 || len(task.Outputs) != 1 || cap(task.Inputs) != 1 || cap(task.Outputs) != 1 || task.Deps != nil {
				t.Fatalf("task %d: %d/%d inputs, %d/%d outputs, deps %v: lists must be exact and an empty one nil",
					i, len(task.Inputs), cap(task.Inputs), len(task.Outputs), cap(task.Outputs), task.Deps)
			}
		}
		parse := testing.AllocsPerRun(50, func() {
			if _, err := ParseWorkload(doc); err != nil {
				t.Fatal(err)
			}
		})
		appendDoc := testing.AllocsPerRun(50, func() { w.AppendMiddlewareJSON(nil) })
		t.Logf("%d tasks: %.0f allocations to parse, %.0f to append", n, parse, appendDoc)
		if parse > 10 {
			t.Errorf("%d tasks: %.0f allocations to parse, want at most 10", n, parse)
		}
		if appendDoc != 1 {
			t.Errorf("%d tasks: %.0f allocations to append, want 1", n, appendDoc)
		}
	}
}

// TestParseWorkloadDoesNotAliasInput: the request body is the caller's; a
// workload read from it keeps none of it, on either path.
func TestParseWorkloadDoesNotAliasInput(t *testing.T) {
	w, err := Generate(multistageApp(), 5)
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := w.WriteMiddlewareJSON(&indented); err != nil {
		t.Fatal(err)
	}
	for _, doc := range [][]byte{w.AppendMiddlewareJSON(nil), indented.Bytes()} {
		want, err := ParseWorkload(doc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseWorkload(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range doc {
			doc[i] = 'x'
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("overwriting the input changed the workload read from it")
		}
	}
}

// FuzzParseWorkload holds the compact reader to encoding/json: whatever it
// accepts, encoding/json decodes to the same workload with the same verdict.
func FuzzParseWorkload(f *testing.F) {
	for _, w := range codecWorkloads(f) {
		f.Add(w.AppendMiddlewareJSON(nil))
		var indented bytes.Buffer
		if err := w.WriteMiddlewareJSON(&indented); err != nil {
			f.Fatal(err)
		}
		f.Add(indented.Bytes())
	}
	f.Add([]byte(`{"name":"x","stages":["s"],"tasks":[{"id":"a","stage":"s","index":-0,"cores":1,"duration_s":1.5e-3}]}`))
	// Multi-byte text: read in place, but U+2028 (which json escapes) and
	// invalid UTF-8 (which it replaces) are declined.
	for _, name := range []string{"2 pilot(s) × 2 cores", "line\xe2\x80\xa8sep", "bad\xffutf8", "cut\xc3"} {
		f.Add([]byte(`{"name":"` + name + `","stages":null,"tasks":[{"id":"` + name + `","stage":"s","index":0,"cores":1,"duration_s":1}]}`))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r := JSONReader{b}
		fast, verdict := r.Workload()
		if fast == nil && verdict == nil || !r.End() {
			return
		}
		ref, err := decodeWorkload(b)
		if err != nil {
			t.Fatalf("compact reader accepted what encoding/json rejects (%v): %q", err, b)
		}
		if refVerdict := validate(ref); fmt.Sprint(verdict) != fmt.Sprint(refVerdict) {
			t.Fatalf("verdicts disagree on %q: %v vs %v", b, verdict, refVerdict)
		}
		if verdict == nil && !reflect.DeepEqual(fast, ref) {
			t.Fatalf("readers disagree on %q:\ncompact %+v\n   json %+v", b, fast, ref)
		}
	})
}
