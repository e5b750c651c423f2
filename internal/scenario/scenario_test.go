package scenario

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"aimes/internal/core"
)

const validScenario = `{
  "name": "test",
  "seed": 1,
  "workload": {"tasks": 8, "duration": "2m"},
  "strategy": {
    "binding": "late",
    "pilots": 2,
    "resources": ["stampede", "comet"],
    "adaptive": {"patience": "10m", "replace_lost_pilots": true}
  },
  "testbed": {"sites": [
    {"name": "stampede", "median_wait": "1m"},
    {"name": "comet", "median_wait": "1m"},
    "gordon"
  ]},
  "events": [
    {"at": "3m", "action": "outage", "target": "stampede"},
    {"at": "20m", "action": "recover", "target": "stampede"}
  ]
}`

func TestParseValid(t *testing.T) {
	s, err := ParseString(validScenario)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "test" || s.Workload.Tasks != 8 {
		t.Fatalf("parsed %+v", s)
	}
	if got := s.Events[0].At.Std(); got != 3*time.Minute {
		t.Fatalf("event time = %v, want 3m", got)
	}
	if !s.Events[0].killRunning() {
		t.Fatal("kill_running should default to true")
	}
	// Mixed site-spec forms: bare string and object.
	if s.Testbed.Sites[2].Name != "gordon" {
		t.Fatalf("bare-string site = %+v", s.Testbed.Sites[2])
	}
	names, err := s.siteNames()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("site names = %v", names)
	}
}

func TestDurationForms(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"1h30m"`)); err != nil || d.Std() != 90*time.Minute {
		t.Fatalf("string form: %v %v", d.Std(), err)
	}
	if err := d.UnmarshalJSON([]byte(`90`)); err != nil || d.Std() != 90*time.Second {
		t.Fatalf("numeric form: %v %v", d.Std(), err)
	}
	if err := d.UnmarshalJSON([]byte(`"bogus"`)); err == nil {
		t.Fatal("bad duration accepted")
	}
}

// mutate parses the valid scenario, applies f, and returns Validate's error.
func mutate(t *testing.T, f func(*Scenario)) error {
	t.Helper()
	s, err := ParseString(validScenario)
	if err != nil {
		t.Fatal(err)
	}
	f(s)
	return s.Validate()
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Scenario)
		want string
	}{
		{"missing name", func(s *Scenario) { s.Name = "" }, "missing name"},
		{"zero tasks", func(s *Scenario) { s.Workload.Tasks = 0 }, "tasks"},
		{"bad duration", func(s *Scenario) { s.Workload.Duration = "often" }, "duration"},
		{"bad binding", func(s *Scenario) { s.Strategy.Binding = "sideways" }, "binding"},
		{"unknown action", func(s *Scenario) { s.Events[0].Action = "explode" }, "unknown action"},
		{"unknown target", func(s *Scenario) { s.Events[0].Target = "summit" }, "not in testbed"},
		{"missing target", func(s *Scenario) { s.Events[0].Target = "" }, "missing target"},
		{"negative time", func(s *Scenario) { s.Events[0].At = -1 }, "negative time"},
		{"unpinned resource", func(s *Scenario) { s.Strategy.Resources = []string{"summit"} }, "not in testbed"},
		{"too few resources", func(s *Scenario) { s.Strategy.Pilots = 5 }, "pinned resources"},
		{"bad background util", func(s *Scenario) { s.Testbed.BackgroundUtil = 1.5 }, "background_util"},
		{"surge without factor", func(s *Scenario) {
			s.Events[0] = Event{At: 0, Action: ActionSurge, Target: "comet"}
		}, "wait_factor"},
		{"degrade without factor", func(s *Scenario) {
			s.Events[0] = Event{At: 0, Action: ActionDegradeWAN, Target: "comet"}
		}, "bandwidth_factor"},
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

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := ParseString(`{"name": "x", "workload": {"tasks": 1}, "strategy": {"binding": "late"}, "frobnicate": true}`)
	if err == nil {
		t.Fatal("unknown top-level field accepted")
	}
}

func TestUnknownSite(t *testing.T) {
	_, err := ParseString(`{
	  "name": "x",
	  "workload": {"tasks": 1},
	  "strategy": {"binding": "late"},
	  "testbed": {"sites": ["perlmutter"]}
	}`)
	if err == nil || !strings.Contains(err.Error(), "unknown site") {
		t.Fatalf("err = %v, want unknown site", err)
	}
}

// runLocal runs s on the local backend and returns the outcome with its
// single job's report.
func runLocal(t *testing.T, s *Scenario) (*Outcome, *core.Report) {
	t.Helper()
	o, err := Run(s, EnvOptions{Backend: "local"})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Jobs) != 1 || o.Jobs[0].State != "done" || o.Jobs[0].Report == nil {
		t.Fatalf("outcome %+v", o.Jobs)
	}
	return o, o.Jobs[0].Report
}

// TestRunOutage drives a full outage scenario through the DES and checks the
// dynamics accounting: the pilot on the failed resource dies, its units
// reschedule onto survivors, and nothing is lost.
func TestRunOutage(t *testing.T) {
	s, err := ParseString(`{
	  "name": "outage-e2e",
	  "seed": 42,
	  "workload": {"tasks": 32, "duration": "10m"},
	  "strategy": {
	    "binding": "late",
	    "pilots": 2,
	    "resources": ["stampede", "comet"],
	    "adaptive": {"patience": "15m", "replace_lost_pilots": true}
	  },
	  "testbed": {"sites": [
	    {"name": "stampede", "median_wait": "1m"},
	    {"name": "comet", "median_wait": "1m"},
	    {"name": "gordon", "median_wait": "2m"}
	  ]},
	  "events": [
	    {"at": "5m", "action": "outage", "target": "stampede"}
	  ]
	}`)
	if err != nil {
		t.Fatal(err)
	}
	res, report := runLocal(t, s)
	if report.UnitsDone != 32 {
		t.Fatalf("units done = %d, want 32 (failed %d, canceled %d)",
			report.UnitsDone, report.UnitsFailed, report.UnitsCanceled)
	}
	if res.PilotsLost != 1 {
		t.Fatalf("pilots lost = %d, want 1", res.PilotsLost)
	}
	if res.Rescheduled == 0 {
		t.Fatal("no units rescheduled off the failed resource")
	}
	if len(res.Applied) == 0 || res.Applied[0].Action != ActionOutage {
		t.Fatalf("applied events = %v", res.Applied)
	}
	// The failed resource must not have completed the whole workload.
	if report.UnitsByResource["stampede"] == 32 {
		t.Fatal("all units credited to the failed resource")
	}
}

// TestRunDeterministic checks that equal seeds give identical outcomes.
func TestRunDeterministic(t *testing.T) {
	run := func() (*Outcome, *core.Report) {
		s, err := ParseString(validScenario)
		if err != nil {
			t.Fatal(err)
		}
		return runLocal(t, s)
	}
	a, ar := run()
	b, br := run()
	if ar.TTC != br.TTC || a.Rescheduled != b.Rescheduled || a.PilotsLost != b.PilotsLost {
		t.Fatalf("nondeterministic: TTC %v vs %v, resched %d vs %d, lost %d vs %d",
			ar.TTC, br.TTC, a.Rescheduled, b.Rescheduled, a.PilotsLost, b.PilotsLost)
	}
}

// TestRunWANDegradation checks that a mid-run bandwidth drop stretches the
// staging component relative to the undegraded run.
func TestRunWANDegradation(t *testing.T) {
	base := `{
	  "name": "wan",
	  "seed": 5,
	  "workload": {"tasks": 32, "duration": "5m"},
	  "strategy": {"binding": "late", "pilots": 2, "resources": ["gordon", "comet"]},
	  "testbed": {"sites": [
	    {"name": "gordon", "median_wait": "1m"},
	    {"name": "comet", "median_wait": "1m"}
	  ]}%s
	}`
	parse := func(events string) *core.Report {
		s, err := ParseString(strings.Replace(base, "%s", events, 1))
		if err != nil {
			t.Fatal(err)
		}
		_, report := runLocal(t, s)
		return report
	}
	clean := parse("")
	degraded := parse(`, "events": [
	  {"at": "0s", "action": "degrade-wan", "target": "gordon", "bandwidth_factor": 0.05},
	  {"at": "0s", "action": "degrade-wan", "target": "comet", "bandwidth_factor": 0.05}
	]`)
	if degraded.UnitsDone != 32 {
		t.Fatalf("degraded run lost units: %d done", degraded.UnitsDone)
	}
	if degraded.Ts <= clean.Ts {
		t.Fatalf("degraded staging %v not above clean %v", degraded.Ts, clean.Ts)
	}
}

// TestShardTargeting checks the shard field end to end: validation, the
// shard-qualified namespace on pilot IDs, and that different shards run
// decorrelated (different seeds) while the same shard stays deterministic.
func TestShardTargeting(t *testing.T) {
	base := `{
	  "name": "sharded",
	  "seed": 9,
	  "shard": %d,
	  "workload": {"tasks": 16, "duration": "5m"},
	  "strategy": {"binding": "late", "pilots": 2, "resources": ["stampede", "comet"]},
	  "testbed": {"sites": [
	    {"name": "stampede", "median_wait": "1m"},
	    {"name": "comet", "median_wait": "1m"}
	  ]}
	}`
	type result struct {
		*Outcome
		Report *core.Report
	}
	run := func(shard int) result {
		s, err := ParseString(fmt.Sprintf(base, shard))
		if err != nil {
			t.Fatal(err)
		}
		o, report := runLocal(t, s)
		if report.UnitsDone != 16 {
			t.Fatalf("shard %d: units done = %d", shard, report.UnitsDone)
		}
		return result{o, report}
	}
	s0, s2, s2b := run(0), run(2), run(2)

	// Pilot IDs and em/unit entities carry the target shard's namespace,
	// matching the environment aggregate's convention for a pinned job.
	for shard, res := range map[int]result{0: s0, 2: s2} {
		want := fmt.Sprintf("s%d-j1-", shard)
		found := false
		for _, rec := range res.Recorder.Records() {
			switch {
			case strings.HasPrefix(rec.Entity, "pilot."):
				if !strings.Contains(rec.Entity, want) {
					t.Fatalf("shard %d pilot entity %q lacks namespace %q", shard, rec.Entity, want)
				}
				found = true
			case rec.Entity == "em" || strings.HasPrefix(rec.Entity, "unit.") &&
				!strings.HasPrefix(rec.Entity, fmt.Sprintf("unit.s%d-j1.", shard)):
				t.Fatalf("shard %d entity %q not shard-qualified", shard, rec.Entity)
			}
		}
		if !found {
			t.Fatalf("shard %d: no pilot records", shard)
		}
		if _, ok := res.Recorder.First(fmt.Sprintf("em.s%d-j1", shard), "ENACTING"); !ok {
			t.Fatalf("shard %d: no qualified em records", shard)
		}
	}
	// Same shard ⇒ identical trajectory; different shards ⇒ decorrelated
	// seeds (the TTCs agreeing would be an unlikely coincidence).
	if s2.Report.TTC != s2b.Report.TTC {
		t.Fatalf("shard 2 nondeterministic: %v vs %v", s2.Report.TTC, s2b.Report.TTC)
	}
	if s0.Report.TTC == s2.Report.TTC {
		t.Fatalf("shards 0 and 2 produced identical TTC %v; seeds not decorrelated", s0.Report.TTC)
	}

	if _, err := ParseString(`{"name": "bad", "shard": -1,
	  "workload": {"tasks": 4}, "strategy": {"binding": "late"}}`); err == nil ||
		!strings.Contains(err.Error(), "negative shard") {
		t.Fatalf("negative shard error = %v", err)
	}
}
