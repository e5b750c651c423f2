package skeleton

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestBagOfTasksSpec(t *testing.T) {
	app := BagOfTasks(128, UniformDuration())
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	w, err := Generate(app, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.TotalTasks() != 128 {
		t.Fatalf("tasks = %d, want 128", w.TotalTasks())
	}
	for _, task := range w.Tasks {
		if task.Duration != 15*time.Minute {
			t.Fatalf("duration %v, want 15m", task.Duration)
		}
		if task.InputBytes() != 1<<20 {
			t.Fatalf("input %d, want 1 MB", task.InputBytes())
		}
		if task.OutputBytes() != 2<<10 {
			t.Fatalf("output %d, want 2 KB", task.OutputBytes())
		}
		if task.Cores != 1 || len(task.Deps) != 0 {
			t.Fatal("bag-of-tasks must be single-core, dependency-free")
		}
		if !task.Inputs[0].External() {
			t.Fatal("inputs must be external")
		}
	}
}

func TestGaussianDurationsWithinBounds(t *testing.T) {
	w, err := Generate(BagOfTasks(512, GaussianDuration()), 7)
	if err != nil {
		t.Fatal(err)
	}
	var min, max time.Duration = time.Hour, 0
	for _, task := range w.Tasks {
		if task.Duration < min {
			min = task.Duration
		}
		if task.Duration > max {
			max = task.Duration
		}
	}
	if min < time.Minute || max > 30*time.Minute {
		t.Fatalf("durations [%v, %v] outside paper bounds [1m, 30m]", min, max)
	}
	if max-min < 5*time.Minute {
		t.Fatal("durations suspiciously uniform for a Gaussian")
	}
	mean := w.MeanDuration()
	if mean < 12*time.Minute || mean > 18*time.Minute {
		t.Fatalf("mean %v, want ~15m", mean)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(BagOfTasks(64, GaussianDuration()), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(BagOfTasks(64, GaussianDuration()), 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Tasks {
		if a.Tasks[i].Duration != b.Tasks[i].Duration {
			t.Fatal("same seed produced different workloads")
		}
	}
	c, _ := Generate(BagOfTasks(64, GaussianDuration()), 43)
	same := true
	for i := range a.Tasks {
		if a.Tasks[i].Duration != c.Tasks[i].Duration {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func multistageApp() AppSpec {
	return AppSpec{
		Name: "montage-like",
		Stages: []StageSpec{
			{Name: "project", Tasks: 8, DurationS: Constant(60),
				InputBytes: Constant(4 << 20), OutputBytes: Constant(2 << 20)},
			{Name: "overlap", Tasks: 8, DurationS: Constant(30),
				OutputBytes: Constant(1 << 20), Inputs: MapOneToOne},
			{Name: "mosaic", Tasks: 1, DurationS: Constant(120),
				OutputBytes: Constant(8 << 20), Inputs: MapAllToAll},
		},
	}
}

func TestMultistageDependencies(t *testing.T) {
	w, err := Generate(multistageApp(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.TotalTasks() != 17 {
		t.Fatalf("tasks = %d, want 17", w.TotalTasks())
	}
	overlap := w.StageTasks("overlap")
	for i, task := range overlap {
		if len(task.Deps) != 1 || !strings.HasPrefix(task.Deps[0], "project.") {
			t.Fatalf("overlap[%d] deps = %v", i, task.Deps)
		}
		if task.InputBytes() != 2<<20 {
			t.Fatalf("overlap input %d, want producer's 2 MB output", task.InputBytes())
		}
	}
	mosaic := w.StageTasks("mosaic")
	if len(mosaic) != 1 || len(mosaic[0].Deps) != 8 {
		t.Fatalf("mosaic deps = %d, want 8 (all-to-all)", len(mosaic[0].Deps))
	}
	if mosaic[0].InputBytes() != 8<<20 {
		t.Fatalf("mosaic input %d, want 8 MB", mosaic[0].InputBytes())
	}
}

func TestGatherMapping(t *testing.T) {
	app := AppSpec{
		Name: "reduce",
		Stages: []StageSpec{
			{Name: "map", Tasks: 16, DurationS: Constant(10),
				InputBytes: Constant(1 << 20), OutputBytes: Constant(1 << 10)},
			{Name: "reduce", Tasks: 4, DurationS: Constant(20),
				OutputBytes: Constant(512), Inputs: MapGather},
		},
	}
	w, err := Generate(app, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range w.StageTasks("reduce") {
		if len(task.Deps) != 4 {
			t.Fatalf("reduce task has %d deps, want 4 (16/4 partition)", len(task.Deps))
		}
	}
	// Every map task consumed exactly once.
	consumed := map[string]int{}
	for _, task := range w.StageTasks("reduce") {
		for _, d := range task.Deps {
			consumed[d]++
		}
	}
	if len(consumed) != 16 {
		t.Fatalf("gather consumed %d distinct producers, want 16", len(consumed))
	}
	for id, n := range consumed {
		if n != 1 {
			t.Fatalf("producer %s consumed %d times", id, n)
		}
	}
}

func TestScatterMapping(t *testing.T) {
	app := AppSpec{
		Name: "fanout",
		Stages: []StageSpec{
			{Name: "split", Tasks: 2, DurationS: Constant(10),
				InputBytes: Constant(1 << 20), OutputBytes: Constant(1 << 20)},
			{Name: "work", Tasks: 8, DurationS: Constant(5),
				OutputBytes: Constant(100), Inputs: MapScatter},
		},
	}
	w, err := Generate(app, 1)
	if err != nil {
		t.Fatal(err)
	}
	producers := map[string]int{}
	for _, task := range w.StageTasks("work") {
		if len(task.Deps) != 1 {
			t.Fatalf("scatter task deps = %v", task.Deps)
		}
		producers[task.Deps[0]]++
	}
	if len(producers) != 2 {
		t.Fatalf("scatter used %d producers, want 2", len(producers))
	}
	for id, n := range producers {
		if n != 4 {
			t.Fatalf("producer %s feeds %d tasks, want 4", id, n)
		}
	}
}

func TestIterativeExpansion(t *testing.T) {
	app := AppSpec{
		Name: "iterative-mapreduce",
		Stages: []StageSpec{
			{Name: "map", Tasks: 4, DurationS: Constant(10),
				InputBytes: Constant(1 << 20), OutputBytes: Constant(1 << 10)},
			{Name: "reduce", Tasks: 1, DurationS: Constant(5),
				OutputBytes: Constant(256), Inputs: MapAllToAll},
		},
		Iterations: []IterationSpec{{Stages: []string{"map", "reduce"}, Count: 3}},
	}
	w, err := Generate(app, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Stages) != 6 {
		t.Fatalf("stages = %v, want 6 after unrolling", w.Stages)
	}
	if w.TotalTasks() != 3*(4+1) {
		t.Fatalf("tasks = %d, want 15", w.TotalTasks())
	}
	// Iteration 1's map must depend on iteration 0's reduce output.
	it1map := w.StageTasks("map.it1")
	if len(it1map) != 4 {
		t.Fatalf("map.it1 has %d tasks", len(it1map))
	}
	for _, task := range it1map {
		if len(task.Deps) != 1 || !strings.HasPrefix(task.Deps[0], "reduce.") {
			t.Fatalf("map.it1 deps = %v, want reduce.*", task.Deps)
		}
	}
}

func TestLinearSpecs(t *testing.T) {
	app := AppSpec{
		Name: "data-dependent",
		Stages: []StageSpec{{
			Name:        "scale",
			Tasks:       4,
			InputBytes:  Constant(10 << 20),               // 10 MB
			DurationS:   LinearOf("input_bytes", 1e-6, 5), // 1 s/MB + 5
			OutputBytes: LinearOf("duration_s", 1000, 0),  // 1 KB/s of runtime
		}},
	}
	w, err := Generate(app, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range w.Tasks {
		wantDur := time.Duration((1e-6*10*(1<<20) + 5) * float64(time.Second))
		if task.Duration != wantDur.Truncate(time.Second) && task.Duration != wantDur {
			t.Fatalf("duration %v, want ~%v", task.Duration, wantDur)
		}
		if task.OutputBytes() != int64(1000*task.Duration.Seconds()) {
			t.Fatalf("output %d not linear in duration %v", task.OutputBytes(), task.Duration)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	app := multistageApp()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(app); err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != app.Name || len(back.Stages) != len(app.Stages) {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestParseJSONRejectsBadInput(t *testing.T) {
	cases := []string{
		``,
		`{"name": ""}`,
		`{"name": "x", "stages": []}`,
		`{"name": "x", "stages": [{"name": "a", "tasks": 0, "duration_s": {"dist": "constant", "value": 1}}]}`,
		`{"name": "x", "unknown_field": 1, "stages": [{"name": "a", "tasks": 1, "duration_s": {"dist": "constant"}}]}`,
		`{"name": "x", "stages": [{"name": "a", "tasks": 1, "duration_s": {"dist": "nope"}}]}`,
	}
	for i, c := range cases {
		if _, err := ParseJSON(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d parsed successfully", i)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	base := multistageApp()
	mutations := []func(*AppSpec){
		func(a *AppSpec) { a.Stages[0].Name = a.Stages[1].Name },
		func(a *AppSpec) { a.Stages[1].Inputs = "bogus" },
		func(a *AppSpec) { a.Stages[0].Inputs = MapOneToOne },
		func(a *AppSpec) { a.Iterations = []IterationSpec{{Stages: []string{"nope"}, Count: 2}} },
		func(a *AppSpec) { a.Iterations = []IterationSpec{{Stages: []string{"project", "mosaic"}, Count: 2}} },
		func(a *AppSpec) { a.Iterations = []IterationSpec{{Stages: []string{"project"}, Count: 0}} },
		func(a *AppSpec) { a.Stages[0].CoresPerTask = -1 },
	}
	for i, mutate := range mutations {
		app := multistageApp()
		mutate(&app)
		if app.Validate() == nil {
			t.Fatalf("mutation %d validated", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteShell(t *testing.T) {
	w, _ := Generate(BagOfTasks(3, UniformDuration()), 1)
	var buf bytes.Buffer
	if err := w.WriteShell(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "#!/bin/sh") {
		t.Fatal("missing shebang")
	}
	if strings.Count(s, "sleep 900.000") != 3 {
		t.Fatalf("expected 3 sleep lines:\n%s", s)
	}
	if !strings.Contains(s, "head -c 1048576") {
		t.Fatal("missing input preparation")
	}
}

func TestWriteDOT(t *testing.T) {
	w, _ := Generate(multistageApp(), 1)
	var buf bytes.Buffer
	if err := w.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "digraph") {
		t.Fatal("not a digraph")
	}
	if strings.Count(s, "->") != 8+8 {
		t.Fatalf("edge count wrong:\n%s", s)
	}
}

func TestWorkloadAggregates(t *testing.T) {
	w, _ := Generate(BagOfTasks(8, UniformDuration()), 1)
	if w.TotalCores() != 8 {
		t.Fatalf("TotalCores = %d", w.TotalCores())
	}
	if w.TotalDuration() != 8*15*time.Minute {
		t.Fatalf("TotalDuration = %v", w.TotalDuration())
	}
	if w.ExternalInputBytes() != 8<<20 {
		t.Fatalf("ExternalInputBytes = %d", w.ExternalInputBytes())
	}
	if w.OutputBytes() != 8*2<<10 {
		t.Fatalf("OutputBytes = %d", w.OutputBytes())
	}
	if !strings.Contains(w.Summary(), "8 tasks") {
		t.Fatalf("Summary = %q", w.Summary())
	}
}

// Property: for any sizes, deps reference existing earlier tasks and inputs
// match producer outputs.
func TestWorkloadConsistencyProperty(t *testing.T) {
	prop := func(n1Raw, n2Raw uint8, seed int64) bool {
		n1 := int(n1Raw%16) + 1
		n2 := int(n2Raw%16) + 1
		app := AppSpec{
			Name: "prop",
			Stages: []StageSpec{
				{Name: "a", Tasks: n1, DurationS: Uniform(1, 10),
					InputBytes: Constant(1000), OutputBytes: Uniform(100, 200)},
				{Name: "b", Tasks: n2, DurationS: Uniform(1, 10),
					OutputBytes: Constant(10), Inputs: MapOneToOne},
			},
		}
		w, err := Generate(app, seed)
		if err != nil {
			return false
		}
		byID := map[string]Task{}
		for _, task := range w.Tasks {
			byID[task.ID] = task
		}
		for _, task := range w.StageTasks("b") {
			if len(task.Deps) != 1 {
				return false
			}
			producer, ok := byID[task.Deps[0]]
			if !ok || producer.Stage != "a" {
				return false
			}
			if task.InputBytes() != producer.OutputBytes() {
				return false
			}
		}
		return w.TotalTasks() == n1+n2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: generation is a pure function of (spec, seed).
func TestGenerateDeterminismProperty(t *testing.T) {
	prop := func(nRaw uint8, seed int64) bool {
		n := int(nRaw%64) + 1
		a, err1 := Generate(BagOfTasks(n, GaussianDuration()), seed)
		b, err2 := Generate(BagOfTasks(n, GaussianDuration()), seed)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range a.Tasks {
			if a.Tasks[i].Duration != b.Tasks[i].Duration ||
				a.Tasks[i].ID != b.Tasks[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateCarvesNames: a task's ID is its stage's name and its index in
// at least five digits, its external input is named after it with ".in" and
// its output with ".out", produced by it, whether the names come from one
// string per stage or not; each file list is capped at its length, so
// appending to one task's files never writes into its neighbour's. A bag of
// tasks is 11 objects whatever its size (14 090 for 2 048 tasks while every
// task had an ID, two names and two file lists of its own).
func TestGenerateCarvesNames(t *testing.T) {
	for _, i := range []int{0, 42, 99999, 100000, 1234567} {
		var b strings.Builder
		writeTaskID(&b, "stage-0", i)
		want := fmt.Sprintf("%s.%05d", "stage-0", i)
		if s := (stageNames{stage: "stage-0"}); b.String() != want || s.idLen(i) != len(want) {
			t.Fatalf("task %d: ID %q of length %d, want %q", i, b.String(), s.idLen(i), want)
		}
	}
	app := multistageApp()
	app.Stages = append(app.Stages, StageSpec{Name: "sink", Tasks: 3, DurationS: Constant(1), Inputs: MapScatter})
	w, err := Generate(app, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range w.Tasks {
		if want := fmt.Sprintf("%s.%05d", task.Stage, task.Index); task.ID != want {
			t.Fatalf("task ID %q, want %q", task.ID, want)
		}
		for _, f := range task.Inputs {
			if f.External() && f.Name != task.ID+".in" {
				t.Fatalf("%s: external input %q", task.ID, f.Name)
			}
		}
		for _, f := range task.Outputs {
			if f.Name != task.ID+".out" || f.Producer != task.ID {
				t.Fatalf("%s: output %+v", task.ID, f)
			}
		}
		if cap(task.Inputs) != len(task.Inputs) || cap(task.Outputs) != len(task.Outputs) {
			t.Fatalf("%s: file lists of capacity %d and %d hold %d and %d", task.ID,
				cap(task.Inputs), cap(task.Outputs), len(task.Inputs), len(task.Outputs))
		}
	}
	if sink := w.StageTasks("sink"); len(sink[0].Outputs) != 0 {
		t.Fatalf("a stage without outputs has %d", len(sink[0].Outputs))
	}
	for _, n := range []int{1, 2048} {
		app := BagOfTasks(n, UniformDuration())
		if got := testing.AllocsPerRun(10, func() { Generate(app, 1) }); got > 11 {
			t.Errorf("a bag of %d tasks is %v objects, want at most 11", n, got)
		}
	}
}

// ExampleGenerate shows deterministic workload materialization from the
// paper's bag-of-tasks spec.
func ExampleGenerate() {
	app := BagOfTasks(4, UniformDuration())
	w, err := Generate(app, 42)
	if err != nil {
		panic(err)
	}
	fmt.Println(w.Summary())
	// Output:
	// bot-4: 4 tasks, 1 stages, mean task 900s, 4.0 MB in / 8.0 KB out
}

// TestIndexAdd: Add indexes a batch after the tasks already held, or rejects
// it whole — every output file is checked, not only their sum, and a
// dependency or producer must come before its consumer.
func TestIndexAdd(t *testing.T) {
	x := Index{}
	first := []Task{{ID: "p", Cores: 1, Outputs: []File{{Name: "p.out", Bytes: 1, Producer: "p"}}}}
	if err := x.Add(first); err != nil {
		t.Fatal(err)
	}
	ok := Task{ID: "q", Cores: 1, Deps: []string{"p"}, Inputs: []File{{Name: "p.out", Bytes: 1, Producer: "p"}}}
	for name, bad := range map[string]Task{
		"empty id":               {Cores: 1},
		"duplicate id":           {ID: "p", Cores: 1},
		"no cores":               {ID: "r", Cores: 0},
		"negative duration":      {ID: "r", Cores: 1, Duration: -1},
		"negative input":         {ID: "r", Cores: 1, Inputs: []File{{Name: "in", Bytes: -1}}},
		"outputs +10 and -5":     {ID: "r", Cores: 1, Outputs: []File{{Name: "a", Bytes: 10}, {Name: "b", Bytes: -5}}},
		"unknown dependency":     {ID: "r", Cores: 1, Deps: []string{"ghost"}},
		"empty dependency":       {ID: "r", Cores: 1, Deps: []string{""}},
		"unknown producer":       {ID: "r", Cores: 1, Inputs: []File{{Name: "in", Bytes: 1, Producer: "ghost"}}},
		"dependency on itself":   {ID: "r", Cores: 1, Deps: []string{"r"}},
		"dependency on a later":  {ID: "r", Cores: 1, Deps: []string{"s"}},
		"duplicate in the batch": {ID: "q", Cores: 1},
	} {
		batch := []Task{ok, bad, {ID: "s", Cores: 1}}
		if err := x.Add(batch); err == nil {
			t.Fatalf("%s: batch accepted", name)
		}
		if x.Len() != 1 {
			t.Fatalf("%s: a rejected batch left %d names, want 1", name, x.Len())
		}
	}
	if err := x.Add([]Task{ok, {ID: "s", Cores: 1, Deps: []string{"q", "p"}}}); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 3 {
		t.Fatalf("index holds %d tasks, want 3", x.Len())
	}
	for id, want := range map[string]int32{"p": 0, "q": 1, "s": 2} {
		if got, ok := x.Lookup(id); !ok || got != want {
			t.Fatalf("Lookup(%q) = %d, %v; want %d, true", id, got, ok, want)
		}
	}
	for _, id := range []string{"", "r", "ghost"} {
		if got, ok := x.Lookup(id); ok {
			t.Fatalf("Lookup(%q) = %d, true; want none", id, got)
		}
	}
}
