package skeleton

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

const sampleConfig = `
# iterative map-reduce skeleton
name = iterative-mapreduce

stage = map
tasks = 16
duration = truncnormal 120 30 30 300
input = constant 4194304
output = 1048576          # bare number = constant

stage = reduce
tasks = 4
inputs_from = gather
duration = 90
output = constant 262144

iterate = map reduce
iterations = 3
`

func TestParseTextFull(t *testing.T) {
	app, err := ParseText(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	if app.Name != "iterative-mapreduce" || len(app.Stages) != 2 {
		t.Fatalf("app = %+v", app)
	}
	m := app.Stages[0]
	if m.Name != "map" || m.Tasks != 16 || m.DurationS.Dist != "truncnormal" {
		t.Fatalf("map stage = %+v", m)
	}
	if m.InputBytes.Value != 4194304 || m.OutputBytes.Value != 1048576 {
		t.Fatalf("map sizes = %+v", m)
	}
	r := app.Stages[1]
	if r.Inputs != MapGather || r.DurationS.Value != 90 {
		t.Fatalf("reduce stage = %+v", r)
	}
	if len(app.Iterations) != 1 || app.Iterations[0].Count != 3 {
		t.Fatalf("iterations = %+v", app.Iterations)
	}
	// Must generate cleanly.
	w, err := Generate(app, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.TotalTasks() != 3*20 {
		t.Fatalf("tasks = %d, want 60", w.TotalTasks())
	}
}

func TestParseTextSpecForms(t *testing.T) {
	cases := []struct {
		in   string
		dist string
	}{
		{"constant 5", "constant"},
		{"42", "constant"},
		{"uniform 1 2", "uniform"},
		{"normal 10 2", "normal"},
		{"truncnormal 900 300 60 1800", "truncnormal"},
		{"lognormal 600 0.8", "lognormal"},
		{"linear input_bytes 1e-6 5", "linear"},
	}
	for _, c := range cases {
		spec, err := parseSpecText(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if spec.Dist != c.dist {
			t.Fatalf("%q parsed as %q, want %q", c.in, spec.Dist, c.dist)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%q: invalid: %v", c.in, err)
		}
	}
}

func TestParseTextGaussianBoundsMatchPaper(t *testing.T) {
	cfg := `
name = exp2
stage = s
tasks = 64
duration = truncnormal 900 300 60 1800
input = 1048576
output = 2048
`
	app, err := ParseText(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	w, err := Generate(app, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range w.Tasks {
		if task.Duration < time.Minute || task.Duration > 30*time.Minute {
			t.Fatalf("duration %v outside [1m, 30m]", task.Duration)
		}
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := []string{
		"garbage line without equals",
		"tasks = 4",                       // outside a stage
		"duration = constant 1",           // outside a stage
		"name = x\nstage = a\ntasks = no", // bad int
		"name = x\nstage = a\ntasks = 1\nduration = bogus 1",
		"name = x\nstage = a\ntasks = 1\nduration = uniform 1",                   // wrong arity
		"name = x\nstage = a\ntasks = 1\nduration = 90\noutput = 1\niterate = a", // iterate without count
		"name = x\nstage = a\ntasks = 1\nduration = 90\nfrobnicate = 1",          // unknown key
		"name = x",                            // no stages
		"stage = a\ntasks = 1\nduration = 90", // no app name
	}
	for i, c := range cases {
		if _, err := ParseText(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d parsed successfully:\n%s", i, c)
		}
	}
}

func TestParseTextStageNameViaNameKey(t *testing.T) {
	cfg := `
name = app
stage =
name = renamed
tasks = 2
duration = 60
output = 10
`
	app, err := ParseText(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if app.Stages[0].Name != "renamed" {
		t.Fatalf("stage name = %q", app.Stages[0].Name)
	}
}

func TestParseTextJSONEquivalence(t *testing.T) {
	// The same app through both parsers generates identical workloads.
	textApp, err := ParseText(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := textApp.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	jsonApp, err := ParseJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := Generate(textApp, 5)
	b, _ := Generate(jsonApp, 5)
	if a.TotalTasks() != b.TotalTasks() {
		t.Fatal("parsers disagree on task count")
	}
	for i := range a.Tasks {
		if a.Tasks[i].Duration != b.Tasks[i].Duration || a.Tasks[i].ID != b.Tasks[i].ID {
			t.Fatal("parsers produce different workloads")
		}
	}
}

func TestMiddlewareJSONRoundTrip(t *testing.T) {
	app := multistageApp()
	w, err := Generate(app, 17)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func() *Workload {
		t.Helper()
		var buf strings.Builder
		if err := w.WriteMiddlewareJSON(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ParseWorkloadJSON(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatal(err)
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
		if len(a.Deps) != len(b.Deps) {
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
	}
	for i, c := range cases {
		if _, err := ParseWorkloadJSON(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d parsed successfully", i)
		}
	}
}

// TestParseWorkloadJSONAllocations pins the submit path's conversion: what
// ParseWorkloadJSON allocates beyond encoding/json's own decoding is a fixed
// handful of objects per workload — the task slice, one file slab, the ID set —
// not two lists per task. The ceiling is per task and covers the decoding
// too, measured on the bag-of-tasks documents the service benchmark submits
// (one input and one output per task): 10.5 per task at 8 tasks and 9.1 at
// 16, where appending file by file cost 12.8 and 11.2.
func TestParseWorkloadJSONAllocations(t *testing.T) {
	for _, n := range []int{8, 16} {
		w, err := Generate(BagOfTasks(n, Constant(60)), 3)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := w.WriteMiddlewareJSON(&buf); err != nil {
			t.Fatal(err)
		}
		doc := buf.String()
		back, err := ParseWorkloadJSON(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, task := range back.Tasks {
			if len(task.Inputs) != 1 || len(task.Outputs) != 1 || cap(task.Inputs) != 1 || cap(task.Outputs) != 1 || task.Deps != nil {
				t.Fatalf("task %d: %d/%d inputs, %d/%d outputs, deps %v: lists must be exact and an empty one nil",
					i, len(task.Inputs), cap(task.Inputs), len(task.Outputs), cap(task.Outputs), task.Deps)
			}
		}
		perTask := testing.AllocsPerRun(50, func() {
			if _, err := ParseWorkloadJSON(strings.NewReader(doc)); err != nil {
				t.Fatal(err)
			}
		}) / float64(n)
		t.Logf("%d tasks: %.1f allocations per task", n, perTask)
		if perTask > 11 {
			t.Errorf("%d tasks: %.1f allocations per task, want at most 11", n, perTask)
		}
	}
}
