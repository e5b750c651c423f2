package scenario

import (
	"os"
	"strings"
	"testing"
	"time"

	"aimes"
)

// TestMain lets this test binary serve as its own worker: a child spawned
// with the worker environment variable set serves the framed protocol on
// stdio and exits inside WorkerMain; every other invocation runs the tests.
func TestMain(m *testing.M) {
	aimes.WorkerMain()
	os.Exit(m.Run())
}

// TestRunRejects covers the runner's refusal paths.
func TestRunRejects(t *testing.T) {
	s, err := ParseString(fleetScenario)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s, EnvOptions{Backend: "local"}); err == nil ||
		!strings.Contains(err.Error(), "worker backend") {
		t.Fatalf("fleet on local backend: %v", err)
	}
	if _, err := Run(s, EnvOptions{Backend: "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("unknown backend: %v", err)
	}
	// What `aimes-scenario run -backend wroker` passes for a fleetless
	// scenario: a typo is refused, not run on the local backend.
	plain, err := ParseString(validScenario)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(plain, EnvOptions{Backend: "wroker"}); err == nil ||
		!strings.Contains(err.Error(), `unknown backend "wroker"`) {
		t.Fatalf("mistyped backend on a fleetless scenario: %v", err)
	}
}

// TestRunEmergentTestbed runs an emergent testbed (full batch simulation
// under background load, 72 virtual hours of warm-up inside the backend)
// with an emergent queue-surge burst to completion, and checks that
// applied-event times are relative to enactment, not to the warm-up.
func TestRunEmergentTestbed(t *testing.T) {
	s, err := ParseString(`{
	  "name": "emergent-surge",
	  "seed": 7,
	  "workload": {"tasks": 16, "duration": "5m"},
	  "strategy": {"binding": "late", "pilots": 2, "resources": ["stampede", "comet"]},
	  "testbed": {"sites": ["stampede", "comet"], "background_util": 0.5},
	  "events": [
	    {"at": "2m", "action": "queue-surge", "target": "stampede", "jobs": 8, "job_nodes": 4, "job_runtime": "10m"}
	  ]
	}`)
	if err != nil {
		t.Fatal(err)
	}
	o, report := runLocal(t, s)
	if report.UnitsDone != 16 {
		t.Fatalf("units done = %d, want 16", report.UnitsDone)
	}
	// The job was enacted at the warm-up's last background event, a little
	// short of the 72nd hour.
	if epoch := o.Recorder.Records()[0].Time.Duration(); epoch < 71*time.Hour || epoch > 72*time.Hour {
		t.Fatalf("first trace record at %v, want the end of the 72h warm-up", epoch)
	}
	if len(o.Applied) != 1 || o.Applied[0].Action != ActionSurge {
		t.Fatalf("applied events = %v", o.Applied)
	}
	if at := o.Applied[0].At.Duration(); at != 2*time.Minute {
		t.Fatalf("surge applied at %v, want 2m after enactment", at)
	}
}

// TestKillWorkerInBudget drives the fleet respawn contract end to end from
// a scenario file: six pinned jobs (four enacted, two queued), a virtual-
// time worker kill within the restart budget. The enacted jobs fail, the
// worker respawns, the queued descriptors replay and complete — all
// asserted through the scenario's own assertion battery.
func TestKillWorkerInBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	s, err := ParseString(`{
	  "name": "kill-in-budget",
	  "seed": 20260808,
	  "workload": {"tasks": 8, "duration": "5m"},
	  "strategy": {"binding": "late", "pilots": 2, "resources": ["stampede", "comet"]},
	  "testbed": {"sites": [
	    {"name": "stampede", "median_wait": "1m"},
	    {"name": "comet", "median_wait": "1m"}
	  ]},
	  "fleet": {"workers": 2, "endpoints": 1, "max_restarts": 1, "jobs": 6},
	  "events": [{"at": "4m", "action": "kill-worker", "target": "0"}],
	  "assertions": [
	    {"kind": "state", "want": "done", "count": 2},
	    {"kind": "state", "want": "failed", "count": 4},
	    {"kind": "fleet", "field": "restarts", "min": 1, "max": 1},
	    {"kind": "fleet", "field": "replayed", "min": 2, "max": 2},
	    {"kind": "report", "field": "units_done", "job": 4, "min": 8, "max": 8},
	    {"kind": "report", "field": "units_done", "job": 5, "min": 8, "max": 8}
	  ]
	}`)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Run(s, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Assert(); err != nil {
		t.Fatal(err)
	}
	// The enacted jobs' failures name the shard, like any worker death.
	for i := 0; i < 4; i++ {
		if !strings.Contains(o.Jobs[i].Err, "s0") {
			t.Fatalf("job %d failure does not name the shard: %q", i, o.Jobs[i].Err)
		}
	}
}

// TestKillWorkerPastBudget is the containment half: with no restart budget
// a virtual-time kill fails the shard's jobs terminally — no respawn, no
// replay — and the assertions prove it.
func TestKillWorkerPastBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	s, err := ParseString(`{
	  "name": "kill-past-budget",
	  "seed": 909,
	  "workload": {"tasks": 8, "duration": "5m"},
	  "strategy": {"binding": "late", "pilots": 2, "resources": ["stampede", "comet"]},
	  "testbed": {"sites": [
	    {"name": "stampede", "median_wait": "1m"},
	    {"name": "comet", "median_wait": "1m"}
	  ]},
	  "fleet": {"workers": 2, "endpoints": 1, "max_restarts": 0, "jobs": 2},
	  "events": [{"at": "3m", "action": "kill-worker", "target": "0"}],
	  "assertions": [
	    {"kind": "state", "want": "failed", "count": 2},
	    {"kind": "state", "want": "done", "count": 0},
	    {"kind": "fleet", "field": "restarts", "max": 0},
	    {"kind": "fleet", "field": "replayed", "max": 0}
	  ]
	}`)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Run(s, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Assert(); err != nil {
		t.Fatal(err)
	}
	for i, j := range o.Jobs {
		if !strings.Contains(j.Err, "s0") {
			t.Fatalf("job %d terminal failure does not name the shard: %q", i, j.Err)
		}
	}
}

// TestFlapWANExpansion checks the flap-wan → degrade-wan cycle expansion
// the runners inject.
func TestFlapWANExpansion(t *testing.T) {
	s := &Scenario{
		Events: []Event{
			{At: Duration(60e9), Action: ActionFlapWAN, Target: "gordon",
				BandwidthFactor: 0.5, Duration: Duration(30e9), Cycles: 2, Period: Duration(120e9)},
			{At: 0, Action: ActionKillWorker},
		},
	}
	evs := s.testbedEvents()
	if len(evs) != 2 {
		t.Fatalf("expanded into %d events, want 2 degrade cycles (fleet event excluded)", len(evs))
	}
	for i, e := range evs {
		if e.Action != ActionDegradeWAN || e.BandwidthFactor != 0.5 || e.Duration != Duration(30e9) {
			t.Fatalf("cycle %d: %+v", i, e)
		}
		want := Duration(60e9) + Duration(i)*Duration(120e9)
		if e.At != want {
			t.Fatalf("cycle %d at %v, want %v", i, e.At.Std(), want.Std())
		}
	}
	// Defaults: 3 cycles, period 2x duration.
	s.Events[0].Cycles, s.Events[0].Period = 0, 0
	evs = s.testbedEvents()
	if len(evs) != 3 {
		t.Fatalf("default cycles: %d events, want 3", len(evs))
	}
	if evs[1].At != Duration(60e9)+2*Duration(30e9) {
		t.Fatalf("default period: second cycle at %v", evs[1].At.Std())
	}
}
