package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aimes"
)

// TestMain lets a fleet scenario re-execute this test binary as its workers.
func TestMain(m *testing.M) {
	aimes.WorkerMain()
	os.Exit(m.Run())
}

// TestExampleScenarios runs every example scenario through `run -assert` on
// the default backend (fleet scenarios on worker processes): each one's
// assertions must hold, and the deliberately failing fixture must fail
// naming the index of the assertion it breaks.
func TestExampleScenarios(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios: %v", err)
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".json")
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			err := runCmd(&out, []string{"-assert", file})
			if name == "failing-fixture" {
				if err == nil || !strings.Contains(err.Error(), "assertion 1") {
					t.Fatalf("run -assert: %v, want the failure of assertion 1", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("run -assert: %v", err)
			}
			if !strings.Contains(out.String(), "assertions: ") {
				t.Fatalf("run -assert printed no assertion tally:\n%s", out.String())
			}
		})
	}
}

// TestRunRejectsMistypedBackend is the CLI half of the runner's backend
// check: a -backend value that is neither local nor worker fails the run
// instead of silently executing on the local backend, fleet scenario or not.
func TestRunRejectsMistypedBackend(t *testing.T) {
	for _, file := range []string{"outage.json", "fleet-respawn.json"} {
		err := runCmd(io.Discard, []string{"-backend", "wroker", "../../examples/scenarios/" + file})
		if err == nil || !strings.Contains(err.Error(), `unknown backend "wroker"`) {
			t.Errorf("%s: run -backend wroker: %v", file, err)
		}
	}
}
