package main

import (
	"strings"
	"testing"
)

// TestRunRejectsMistypedBackend is the CLI half of the runner's backend
// check: a -backend value that is neither local nor worker fails the run
// instead of silently executing on the local backend, fleet scenario or not.
func TestRunRejectsMistypedBackend(t *testing.T) {
	for _, file := range []string{"outage.json", "fleet-respawn.json"} {
		err := runCmd([]string{"-backend", "wroker", "../../examples/scenarios/" + file})
		if err == nil || !strings.Contains(err.Error(), `unknown backend "wroker"`) {
			t.Errorf("%s: run -backend wroker: %v", file, err)
		}
	}
}
