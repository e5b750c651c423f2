package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"aimes/internal/core"
	"aimes/internal/trace"
)

// fleetScenario is a valid fleet scenario used as the mutation base for the
// fleet-flavored validation paths.
const fleetScenario = `{
  "name": "fleet-base",
  "seed": 5,
  "workload": {"tasks": 8, "duration": "2m"},
  "strategy": {"binding": "late", "pilots": 2, "resources": ["stampede", "comet"]},
  "testbed": {"sites": [
    {"name": "stampede", "median_wait": "1m"},
    {"name": "comet", "median_wait": "1m"}
  ]},
  "fleet": {"workers": 2, "endpoints": 2, "max_restarts": 1, "jobs": 4},
  "events": [
    {"at": "3m", "action": "kill-worker", "target": "0"},
    {"at": "1m", "action": "drain-endpoint", "target": "ep1"}
  ],
  "assertions": [
    {"kind": "state", "want": "done", "count": 2},
    {"kind": "fleet", "field": "restarts", "min": 1}
  ]
}`

func mutateFleet(t *testing.T, f func(*Scenario)) error {
	t.Helper()
	s, err := ParseString(fleetScenario)
	if err != nil {
		t.Fatal(err)
	}
	f(s)
	return s.Validate()
}

func intp(v int) *int           { return &v }
func floatp(v float64) *float64 { return &v }

// TestValidateEventRejects covers the new timeline error paths: flap-wan
// shape checks, fleet-event routing, and generator exclusivity.
func TestValidateEventRejects(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Scenario)
		want string
	}{
		{"flap without factor", func(s *Scenario) {
			s.Events[0] = Event{Action: ActionFlapWAN, Target: "comet", Duration: Duration(60e9)}
		}, "bandwidth_factor"},
		{"flap without duration", func(s *Scenario) {
			s.Events[0] = Event{Action: ActionFlapWAN, Target: "comet", BandwidthFactor: 0.5}
		}, "duration > 0"},
		{"flap period under duration", func(s *Scenario) {
			s.Events[0] = Event{Action: ActionFlapWAN, Target: "comet", BandwidthFactor: 0.5,
				Duration: Duration(120e9), Period: Duration(60e9)}
		}, "shorter than the degraded duration"},
		{"flap negative cycles", func(s *Scenario) {
			s.Events[0] = Event{Action: ActionFlapWAN, Target: "comet", BandwidthFactor: 0.5,
				Duration: Duration(60e9), Cycles: -1}
		}, "negative cycles"},
		{"kill-worker without fleet", func(s *Scenario) {
			s.Events[0] = Event{Action: ActionKillWorker}
		}, "requires a fleet section"},
		{"cordon without fleet", func(s *Scenario) {
			s.Events[0] = Event{Action: ActionCordon, Target: "ep0"}
		}, "requires a fleet section"},
		{"generator and duration", func(s *Scenario) {
			s.Workload.Generator = &GeneratorSpec{Process: "bursty"}
		}, "mutually exclusive"},
		{"generator unknown process", func(s *Scenario) {
			s.Workload.Duration = ""
			s.Workload.Generator = &GeneratorSpec{Process: "lumpy"}
		}, "unknown process"},
		{"generator bad alpha", func(s *Scenario) {
			s.Workload.Duration = ""
			s.Workload.Generator = &GeneratorSpec{Process: "heavy-tailed", Alpha: 0.5}
		}, "alpha"},
	}
	for _, tc := range cases {
		err := mutate(t, tc.f)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateFleetRejects covers the fleet-section and fleet-event paths
// on a scenario that actually has a fleet.
func TestValidateFleetRejects(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Scenario)
		want string
	}{
		{"one worker", func(s *Scenario) { s.Fleet.Workers = 1 }, "fleet.workers"},
		{"too many workers", func(s *Scenario) { s.Fleet.Workers = 99 }, "fleet.workers"},
		{"negative endpoints", func(s *Scenario) { s.Fleet.Endpoints = -1 }, "fleet.endpoints"},
		{"negative restarts", func(s *Scenario) { s.Fleet.MaxRestarts = -1 }, "max_restarts"},
		{"too many jobs", func(s *Scenario) { s.Fleet.Jobs = 1000 }, "fleet.jobs"},
		{"fleet emergent", func(s *Scenario) { s.Testbed.BackgroundUtil = 0.5 }, "emergent"},
		{"kill-worker shard out of range", func(s *Scenario) { s.Events[0].Target = "7" }, "worker shard index"},
		{"kill-worker garbage target", func(s *Scenario) { s.Events[0].Target = "zero" }, "worker shard index"},
		{"drain unknown endpoint", func(s *Scenario) { s.Events[1].Target = "ep9" }, "not a fleet endpoint"},
		{"drain missing target", func(s *Scenario) { s.Events[1].Target = "" }, "missing target"},
	}
	for _, tc := range cases {
		err := mutateFleet(t, tc.f)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateAssertionRejects covers every assertion validation path, each
// error naming the assertion index.
func TestValidateAssertionRejects(t *testing.T) {
	cases := []struct {
		name string
		a    Assertion
		want string
	}{
		{"unknown kind", Assertion{Kind: "vibes"}, "unknown assertion kind"},
		{"state without want", Assertion{Kind: AssertState}, "needs want"},
		{"state bad want", Assertion{Kind: AssertState, Want: "sideways"}, "unknown job state"},
		{"state negative count", Assertion{Kind: AssertState, Want: "done", Count: intp(-1)}, "negative count"},
		{"report unknown field", Assertion{Kind: AssertReport, Field: "vibes", Min: floatp(1)}, "unknown report field"},
		{"report no bounds", Assertion{Kind: AssertReport, Field: "units_done"}, "min and/or max"},
		{"report negative job", Assertion{Kind: AssertReport, Field: "units_done", Min: floatp(1), Job: intp(-1)}, "negative job index"},
		{"trace no predicates", Assertion{Kind: AssertTrace}, "at least one predicate"},
		{"trace negative min", Assertion{Kind: AssertTrace, Entity: "em", MinCount: intp(-1)}, "negative min_count"},
		{"trace min over max", Assertion{Kind: AssertTrace, Entity: "em", MinCount: intp(3), MaxCount: intp(1)}, "exceeds max_count"},
		{"throughput no min", Assertion{Kind: AssertThroughput}, "min > 0"},
		{"fleet unknown field", Assertion{Kind: AssertFleet, Field: "vibes", Min: floatp(1)}, "unknown fleet field"},
		{"fleet no bounds", Assertion{Kind: AssertFleet, Field: "restarts"}, "min and/or max"},
		{"model unknown field", Assertion{Kind: AssertModel, Field: "vibes", Min: floatp(1)}, "unknown model field"},
		{"model no bounds", Assertion{Kind: AssertModel}, "min and/or max"},
		{"latency no percentile", Assertion{Kind: AssertLatency, Min: floatp(1)}, "needs percentile"},
		{"latency bad percentile", Assertion{Kind: AssertLatency, Percentile: floatp(101), Min: floatp(1)}, "out of range"},
		{"latency no bounds", Assertion{Kind: AssertLatency, Percentile: floatp(95)}, "min and/or max"},
	}
	for _, tc := range cases {
		err := mutate(t, func(s *Scenario) { s.Assertions = []Assertion{tc.a} })
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if !strings.Contains(err.Error(), "assertion 0") {
			t.Errorf("%s: error %q does not name the assertion index", tc.name, err)
		}
	}
	// A fleet assertion on a fleetless scenario is rejected too.
	err := mutate(t, func(s *Scenario) {
		s.Assertions = []Assertion{{Kind: AssertFleet, Field: "restarts", Min: floatp(1)}}
	})
	if err == nil || !strings.Contains(err.Error(), "requires a fleet section") {
		t.Fatalf("fleetless fleet assertion: %v", err)
	}
	// Same for a model assertion: it scores predictions over the fleet's job
	// fan-out.
	err = mutate(t, func(s *Scenario) {
		s.Assertions = []Assertion{{Kind: AssertModel, Max: floatp(1)}}
	})
	if err == nil || !strings.Contains(err.Error(), "requires a fleet section") {
		t.Fatalf("fleetless model assertion: %v", err)
	}
}

// TestValidateCollectsAllErrors is the satellite contract of validate: one
// pass reports every problem, each naming the scenario and the event or
// assertion index, instead of stopping at the first.
func TestValidateCollectsAllErrors(t *testing.T) {
	err := mutate(t, func(s *Scenario) {
		s.Workload.Tasks = 0                    // problem 1
		s.Events[0].Action = "explode"          // problem 2, event 0
		s.Events[1].At = -1                     // problem 3, event 1
		s.Assertions = []Assertion{{Kind: "?"}} // problem 4, assertion 0
	})
	if err == nil {
		t.Fatal("broken scenario accepted")
	}
	msg := err.Error()
	for _, want := range []string{
		"tasks must be positive",
		"event 0: unknown action",
		"event 1 (recover): negative time",
		"assertion 0: unknown assertion kind",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error missing %q:\n%s", want, msg)
		}
	}
	if n := len(strings.Split(msg, "\n")); n != 4 {
		t.Errorf("joined error has %d lines, want 4:\n%s", n, msg)
	}
}

// TestAssertOutcome exercises the evaluator itself on a synthetic outcome:
// passing and failing assertions of every kind, with failures naming the
// assertion index and observed-vs-expected values.
func TestAssertOutcome(t *testing.T) {
	rec := trace.NewRecorder()
	rec.Record(0, "em.s0-j1", "MIGRATED", "to shard 1")
	rec.Record(1, "pilot.stampede.s0-j1-1", "FAILED", "resource failed")
	rec.Record(2, "chaos", "OUTAGE", "stampede: hard, running jobs killed")
	// Two units with 10s and 30s first-record→DONE latencies: p50 = 10,
	// p99 = 30 under nearest-rank.
	rec.Record(0, "unit.s0-j1.a", "EXECUTING", "")
	rec.Record(10e9, "unit.s0-j1.a", "DONE", "")
	rec.Record(0, "unit.s0-j1.b", "EXECUTING", "")
	rec.Record(30e9, "unit.s0-j1.b", "DONE", "")
	o := &Outcome{
		Scenario: &Scenario{Name: "synthetic"},
		Jobs: []JobOutcome{
			// Predicted 110 vs observed TTC 100s: rel error 0.1 — the only
			// prediction-carrying job, so mean and max agree.
			{State: "done", Report: &core.Report{UnitsDone: 10, Throughput: 120, TTC: 100 * time.Second}, Predicted: 110},
			{State: "failed", Err: "worker died"},
		},
		Rescheduled: 3, PilotsLost: 1,
		Recorder: rec,
		Fleet:    FleetOutcome{Restarts: 1, Replayed: 2},
	}
	o.Scenario.Fleet = &FleetSpec{}
	pass := []Assertion{
		{Kind: AssertState, Want: "done", Count: intp(1)},
		{Kind: AssertState, Want: "failed", Count: intp(1)},
		{Kind: AssertReport, Field: "units_done", Min: floatp(10), Max: floatp(10)},
		{Kind: AssertReport, Field: "rescheduled", Min: floatp(3)},
		{Kind: AssertReport, Field: "pilots_lost", Max: floatp(1)},
		{Kind: AssertTrace, Entity: "em.s0-j1", State: "MIGRATED"},
		{Kind: AssertTrace, EntityPrefix: "pilot.stampede", State: "FAILED", MinCount: intp(1), MaxCount: intp(1)},
		{Kind: AssertTrace, Entity: "chaos", DetailContains: "running jobs killed"},
		{Kind: AssertThroughput, Min: floatp(100)},
		{Kind: AssertFleet, Field: "restarts", Min: floatp(1), Max: floatp(1)},
		{Kind: AssertFleet, Field: "replayed", Min: floatp(2)},
		{Kind: AssertModel, Max: floatp(0.2)},
		{Kind: AssertModel, Field: "max_rel_error", Min: floatp(0.05), Max: floatp(0.15)},
		{Kind: AssertLatency, Percentile: floatp(50), Max: floatp(15)},
		{Kind: AssertLatency, Percentile: floatp(99), Min: floatp(25), Max: floatp(35)},
	}
	o.Scenario.Assertions = pass
	if err := o.Assert(); err != nil {
		t.Fatalf("passing assertions failed: %v", err)
	}

	fail := []struct {
		a    Assertion
		want string
	}{
		{Assertion{Kind: AssertState, Want: "done"}, "job 1 is failed (worker died)"},
		{Assertion{Kind: AssertState, Want: "done", Count: intp(2)}, "want 2 job(s), got 1 of 2"},
		{Assertion{Kind: AssertReport, Field: "units_done", Min: floatp(11)}, "want >= 11, got 10"},
		{Assertion{Kind: AssertReport, Field: "units_done", Job: intp(1), Min: floatp(1)}, "job 1 produced no report"},
		{Assertion{Kind: AssertReport, Field: "units_done", Job: intp(9), Min: floatp(1)}, "job 9 out of range"},
		{Assertion{Kind: AssertTrace, Entity: "chaos", State: "RECOVER"}, "want count >= 1, got 0"},
		{Assertion{Kind: AssertTrace, Entity: "chaos", MaxCount: intp(0), MinCount: intp(0)}, "got 1"},
		{Assertion{Kind: AssertThroughput, Min: floatp(200)}, "want >= 200 units/hour"},
		{Assertion{Kind: AssertFleet, Field: "replayed", Max: floatp(1)}, "want <= 1, got 2"},
		{Assertion{Kind: AssertModel, Max: floatp(0.01)}, "model mean_rel_error: want <= 0.01, got 0.1000 over 1 job(s)"},
		{Assertion{Kind: AssertLatency, Percentile: floatp(99), Max: floatp(20)}, "latency p99: want <= 20 seconds, got 30.0"},
		{Assertion{Kind: AssertLatency, Percentile: floatp(50), EntityPrefix: "unit.none.", Min: floatp(1)}, `no "unit.none." entity reached DONE`},
	}
	for _, tc := range fail {
		o.Scenario.Assertions = []Assertion{{Kind: AssertState, Want: "failed", Count: intp(1)}, tc.a}
		err := o.Assert()
		if err == nil {
			t.Errorf("assertion %+v passed, want failure %q", tc.a, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("failure %q does not contain %q", err, tc.want)
		}
		if !strings.Contains(err.Error(), "scenario synthetic: assertion 1 failed") {
			t.Errorf("failure %q does not name the assertion index", err)
		}
	}
}

// FuzzScenario: no input may panic the parser, and every scenario the
// parser accepts must survive a marshal/re-parse round trip.
func FuzzScenario(f *testing.F) {
	f.Add([]byte(validScenario))
	f.Add([]byte(fleetScenario))
	f.Add([]byte(`{"name":"g","workload":{"tasks":4,"generator":{"process":"heavy-tailed","alpha":1.5}},"strategy":{"binding":"early"}}`))
	f.Add([]byte(`{"name":"a","workload":{"tasks":1},"strategy":{"binding":"late"},"assertions":[{"kind":"trace","entity":"em","min_count":2}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("valid scenario failed to marshal: %v", err)
		}
		s2, err := Parse(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, out)
		}
		if s2.Name != s.Name || len(s2.Events) != len(s.Events) ||
			len(s2.Assertions) != len(s.Assertions) || s2.Workload.Tasks != s.Workload.Tasks {
			t.Fatalf("round trip changed the scenario:\nin:  %+v\nout: %+v", s, s2)
		}
	})
}
