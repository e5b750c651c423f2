package skeleton

import (
	"bytes"
	"encoding/json"
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
	doc, err := json.Marshal(textApp)
	if err != nil {
		t.Fatal(err)
	}
	jsonApp, err := ParseJSON(bytes.NewReader(doc))
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
