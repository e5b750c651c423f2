package main

import (
	"errors"
	"path/filepath"
	"testing"

	"aimes/internal/experiments"
)

// TestAblationFlagIsTheRegistry: -ablation accepts exactly the registry's
// names, each resolving to its own entry.
func TestAblationFlagIsTheRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, want := range experiments.Ablations {
		if want.Name == "" || seen[want.Name] {
			t.Fatalf("registry name %q is empty or repeated", want.Name)
		}
		seen[want.Name] = true
		got, err := findAblation(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != want.Name || got.Tasks != want.Tasks {
			t.Errorf("-ablation %s resolved to %+v", want.Name, got)
		}
	}
	for _, name := range []string{"nope", "Pilots", " pilots"} {
		if _, err := findAblation(name); !errors.Is(err, errUsage) {
			t.Errorf("-ablation %q: %v, want a usage error", name, err)
		}
	}
}

// TestCSVNeedsTheMatrix: -csv with a mode that produces no per-run results is
// rejected before anything runs, not silently dropped.
func TestCSVNeedsTheMatrix(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "runs.csv")
	if err := run(1, 0, true, false, 0, false, "", csv, true); !errors.Is(err, errUsage) {
		t.Errorf("-table1 -csv: %v, want a usage error", err)
	}
	if err := run(1, 0, false, false, 0, false, "staged", csv, true); !errors.Is(err, errUsage) {
		t.Errorf("-ablation staged -csv: %v, want a usage error", err)
	}
}
