package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUpdateReproducesBaseline: -update over a copy of the committed
// baseline rewrites it byte for byte (the battery is deterministic and the
// thresholds are a fixed margin over what it measures), and the gate then
// passes against the rewritten file.
func TestUpdateReproducesBaseline(t *testing.T) {
	committed, err := os.ReadFile("../../MODEL_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "MODEL_baseline.json")
	if err := os.WriteFile(path, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-baseline", path, "-update"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "model-check: wrote "+path) {
		t.Fatalf("output does not report the rewrite:\n%s", out.String())
	}
	rewritten, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten, committed) {
		t.Fatalf("-update moved the baseline:\n%s\nwant\n%s", rewritten, committed)
	}
	out.Reset()
	if err := run([]string{"-baseline", path}, &out); err != nil {
		t.Fatalf("gate failed against the rewritten baseline: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "model-check: within baseline") {
		t.Fatalf("gate output:\n%s", out.String())
	}
}
