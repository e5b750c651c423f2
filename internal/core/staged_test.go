package core

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"aimes/internal/skeleton"
)

func stagedApp() skeleton.AppSpec {
	return skeleton.AppSpec{
		Name: "staged",
		Stages: []skeleton.StageSpec{
			{Name: "a", Tasks: 8, DurationS: skeleton.Constant(120),
				InputBytes: skeleton.Constant(1 << 20), OutputBytes: skeleton.Constant(1 << 19)},
			{Name: "b", Tasks: 8, DurationS: skeleton.Constant(60),
				OutputBytes: skeleton.Constant(1 << 10), Inputs: skeleton.MapOneToOne},
		},
	}
}

func TestStageWorkloadDecomposition(t *testing.T) {
	w, err := skeleton.Generate(stagedApp(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sub := stageWorkload(w, "b")
	if sub.TotalTasks() != 8 {
		t.Fatalf("stage b has %d tasks", sub.TotalTasks())
	}
	for _, task := range sub.Tasks {
		if len(task.Deps) != 0 {
			t.Fatal("cross-stage deps must be cleared")
		}
		for _, f := range task.Inputs {
			if !f.External() {
				t.Fatal("cross-stage inputs must become external")
			}
		}
		// Input sizes preserved from the producer outputs (512 KB).
		if task.InputBytes() != 1<<19 {
			t.Fatalf("input bytes = %d, want %d", task.InputBytes(), 1<<19)
		}
	}
}

// cloneWorkload deep-copies w, keeping nil lists nil.
func cloneWorkload(w *skeleton.Workload) *skeleton.Workload {
	c := *w
	c.Stages = slices.Clone(w.Stages)
	c.Tasks = slices.Clone(w.Tasks)
	for i := range c.Tasks {
		t := &c.Tasks[i]
		t.Inputs, t.Outputs, t.Deps = slices.Clone(t.Inputs), slices.Clone(t.Outputs), slices.Clone(t.Deps)
	}
	return &c
}

// TestEnactSharesTheWorkload: each unit runs its element of the workload's
// task slice, not a copy of it, and nothing writes the workload. Two managers
// on engines of their own derive for and run one staged workload at the same
// time (go test -race watches the sharing); afterwards it deep-equals a clone
// taken before, every Deps list included.
func TestEnactSharesTheWorkload(t *testing.T) {
	app := stagedApp()
	app.Stages = append(app.Stages, skeleton.StageSpec{Name: "c", Tasks: 3,
		DurationS: skeleton.Constant(30), OutputBytes: skeleton.Constant(1 << 10), Inputs: skeleton.MapGather})
	w, err := skeleton.Generate(app, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Dependencies the unit manager resolves to another list than Deps: some
	// only through produced inputs, some named twice.
	for i := range w.Tasks {
		if task := &w.Tasks[i]; task.Stage == "b" && i%2 == 0 {
			task.Deps = nil
		} else if task.Stage == "c" {
			task.Deps = append(task.Deps, task.Deps[0])
		}
	}
	before := cloneWorkload(w)
	envs := [2]*env{newEnv(t, 1), newEnv(t, 2)}
	var execs [2]*Execution
	for k, e := range envs {
		d := &Descriptor{Workload: w, Config: StrategyConfig{Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 2}}
		if execs[k], err = e.mgr.Prepare(d, ExecOptions{Recorder: e.rec}); err != nil {
			t.Fatal(err)
		}
	}
	var errs [2]error
	var wg sync.WaitGroup
	for k := range envs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, ex := envs[k], execs[k]
			if errs[k] = ex.Enact(); errs[k] != nil {
				return
			}
			for !ex.done && e.eng.Step() {
			}
			if !ex.done {
				errs[k] = ex.IncompleteError()
			}
		}()
	}
	wg.Wait()
	for k, ex := range execs {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		if ex.report.UnitsDone != len(w.Tasks) {
			t.Fatalf("manager %d: %d of %d units done", k, ex.report.UnitsDone, len(w.Tasks))
		}
		i := 0
		for u := range ex.um.All() {
			if u.Task() != &w.Tasks[i] {
				t.Fatalf("manager %d: unit %d runs a copy of task %s", k, i, w.Tasks[i].ID)
			}
			i++
		}
	}
	if !reflect.DeepEqual(w, before) {
		t.Fatal("enacting the workload changed it")
	}
}
