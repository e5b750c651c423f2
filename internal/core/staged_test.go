package core

import (
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

func TestResourceOf(t *testing.T) {
	cases := map[string]string{
		"pilot.stampede.3": "stampede",
		"pilot.comet.12":   "comet",
		"pilot.x":          "x",
		"odd":              "odd",
	}
	for in, want := range cases {
		if got := resourceOf(in); got != want {
			t.Fatalf("resourceOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestUnitDescriptionsCarveInputsFromOneSlab: every unit gets exactly its
// task's inputs, and growing one unit's list cannot reach into the next
// unit's, although they share an array.
func TestUnitDescriptionsCarveInputsFromOneSlab(t *testing.T) {
	w, err := skeleton.Generate(stagedApp(), 85)
	if err != nil {
		t.Fatal(err)
	}
	descs := unitDescriptions(w)
	for i, task := range w.Tasks {
		in := descs[i].Inputs
		if len(in) != len(task.Inputs) || cap(in) != len(in) {
			t.Fatalf("unit %s: %d inputs with capacity %d, task has %d", task.ID, len(in), cap(in), len(task.Inputs))
		}
		for k, f := range task.Inputs {
			if in[k].Bytes != f.Bytes || in[k].Producer != f.Producer {
				t.Fatalf("unit %s input %d = %+v, task has %+v", task.ID, k, in[k], f)
			}
		}
	}
	if a := testing.AllocsPerRun(10, func() { unitDescriptions(w) }); a != 2 {
		t.Errorf("unitDescriptions allocates %.0f objects for %d tasks, want 2 (the units and the slab)", a, len(w.Tasks))
	}
}
