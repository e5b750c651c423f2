package aimes_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"aimes"
)

// runJob submits w and waits for its report — the blocking composition most
// facade tests want.
func runJob(t testing.TB, env *aimes.Environment, w *aimes.Workload, cfg aimes.JobConfig) *aimes.Report {
	t.Helper()
	j, err := env.Submit(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// runApp generates app from seed, derives a strategy from cfg and runs it.
func runApp(t testing.TB, env *aimes.Environment, app aimes.AppSpec, seed int64, cfg aimes.StrategyConfig) *aimes.Report {
	t.Helper()
	w, err := aimes.GenerateWorkload(app, seed)
	if err != nil {
		t.Fatal(err)
	}
	return runJob(t, env, w, aimes.JobConfig{StrategyConfig: cfg})
}

func TestQuickstartFlow(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Resources()) != 5 {
		t.Fatalf("resources = %v", env.Resources())
	}
	report := runApp(t, env, aimes.BagOfTasks(32, aimes.UniformDuration()), 42, aimes.StrategyConfig{
		Binding:   aimes.LateBinding,
		Scheduler: aimes.SchedBackfill,
		Pilots:    3,
	})
	if report.UnitsDone != 32 {
		t.Fatalf("done = %d, want 32", report.UnitsDone)
	}
	var buf bytes.Buffer
	if err := report.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "late binding") {
		t.Fatalf("summary:\n%s", buf.String())
	}
}

// TestEarlyBindingRoundRobin: early binding over two pilots deals the units
// out at submission, alternately — each pilot stages half of them.
func TestEarlyBindingRoundRobin(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	report := runApp(t, env, aimes.BagOfTasks(8, aimes.UniformDuration()), 42, aimes.StrategyConfig{
		Binding: aimes.EarlyBinding, Scheduler: aimes.SchedRoundRobin, Pilots: 2,
	})
	if n := report.UnitsDone + report.UnitsFailed; n != 8 {
		t.Fatalf("%d units accounted, want 8", n)
	}
	pilotOf := map[string]string{} // unit → the pilot it first staged to
	perPilot := map[string]int{}
	for _, r := range env.Recorder().Records() {
		if !strings.HasPrefix(r.Entity, "unit.") || r.State != "STAGING_INPUT" || pilotOf[r.Entity] != "" {
			continue
		}
		pilot, _, _ := strings.Cut(r.Detail, ",")
		pilotOf[r.Entity] = pilot
		perPilot[pilot]++
	}
	if len(perPilot) != 2 {
		t.Fatalf("units staged to %v, want two pilots", perPilot)
	}
	for pilot, n := range perPilot {
		if n != 4 {
			t.Fatalf("units staged per pilot %v, want 4 each (%s has %d)", perPilot, pilot, n)
		}
	}
}

func TestEnvironmentDeterminism(t *testing.T) {
	run := func() *aimes.Report {
		env, err := aimes.NewEnv(aimes.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		r := runApp(t, env, aimes.BagOfTasks(16, aimes.GaussianDuration()), 7, aimes.StrategyConfig{
			Binding: aimes.EarlyBinding, Scheduler: aimes.SchedDirect, Pilots: 1,
		})
		return r
	}
	a, b := run(), run()
	if a.TTC != b.TTC || a.Tw != b.Tw || a.Tx != b.Tx || a.Ts != b.Ts {
		t.Fatalf("same seed diverged: %v vs %v", a.TTC, b.TTC)
	}
}

func TestDeriveThenRun(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(64, aimes.UniformDuration()), 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := env.Derive(w, aimes.StrategyConfig{
		Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pilots != 3 || s.PilotCores != 22 {
		t.Fatalf("strategy = %+v", s)
	}
	report := runJob(t, env, w, aimes.JobConfig{Strategy: &s})
	if report.UnitsDone != 64 {
		t.Fatalf("done = %d", report.UnitsDone)
	}
}

func TestBundleQueriesThroughFacade(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	b := env.Bundle()
	infos := b.QueryAll()
	if len(infos) != 5 {
		t.Fatalf("queried %d resources", len(infos))
	}
	if b != env.ShardBundle(0) {
		t.Fatal("Bundle is not shard 0's live bundle")
	}
}

func TestTraceThroughFacade(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	runApp(t, env, aimes.BagOfTasks(8, aimes.UniformDuration()), 9, aimes.StrategyConfig{
		Binding: aimes.EarlyBinding, Scheduler: aimes.SchedDirect, Pilots: 1,
	})
	rec := env.Recorder()
	if rec.Len() == 0 {
		t.Fatal("empty trace")
	}
	if len(rec.ByState("EXECUTING")) != 8 {
		t.Fatalf("trace has %d executions, want 8", len(rec.ByState("EXECUTING")))
	}
}

func TestCustomSites(t *testing.T) {
	sites := aimes.DefaultTestbed()[:2]
	env, err := aimes.NewEnv(aimes.WithSeed(5), aimes.WithSites(sites...))
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Resources()) != 2 {
		t.Fatalf("resources = %v", env.Resources())
	}
	// Asking for 3 pilots on 2 sites must fail cleanly at derivation.
	w, _ := aimes.GenerateWorkload(aimes.BagOfTasks(8, aimes.UniformDuration()), 5)
	if _, err := env.Derive(w, aimes.StrategyConfig{
		Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 3,
	}); err == nil {
		t.Fatal("3 pilots on 2 sites derived")
	}
}

func TestValidate(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), 5)
	if err != nil {
		t.Fatal(err)
	}
	good := aimes.StrategyConfig{
		Selection: aimes.SelectFixed, FixedResources: []string{"stampede"}, Pilots: 1,
	}
	if err := env.Validate(w, good); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		w    *aimes.Workload
		cfg  aimes.StrategyConfig
		want string
	}{
		{"unknown fixed resource", w, aimes.StrategyConfig{
			Selection: aimes.SelectFixed, FixedResources: []string{"atlantis"}, Pilots: 1,
		}, "unknown resource"},
		{"empty fixed selection", w, aimes.StrategyConfig{
			Selection: aimes.SelectFixed, Pilots: 1,
		}, "without resources"},
		{"nil workload", nil, good, "zero-task"},
		{"zero-task workload", &aimes.Workload{Name: "empty"}, good, "zero-task"},
		{"negative pilots", w, aimes.StrategyConfig{Pilots: -2}, "negative"},
		{"unknown scheduler", w, aimes.StrategyConfig{Scheduler: aimes.SchedulerKind(99), Pilots: 1}, "unknown scheduler"},
		{"unknown binding", w, aimes.StrategyConfig{Binding: aimes.Binding(7), Pilots: 1}, "unknown binding"},
		{"unknown selection", w, aimes.StrategyConfig{Selection: aimes.Selection(7), Pilots: 1}, "unknown selection"},
	}
	for _, c := range cases {
		err := env.Validate(c.w, c.cfg)
		if err == nil {
			t.Fatalf("%s: validated", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	// Submit runs validation automatically.
	if _, err := env.Submit(nil, w, aimes.JobConfig{
		StrategyConfig: aimes.StrategyConfig{Pilots: -1},
	}); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("Submit skipped validation: %v", err)
	}
}

func TestMultistageAppThroughFacade(t *testing.T) {
	app := aimes.AppSpec{
		Name: "pipeline",
		Stages: []aimes.StageSpec{
			{Name: "prep", Tasks: 8, DurationS: aimes.ConstantSpec(60),
				InputBytes: aimes.ConstantSpec(1 << 20), OutputBytes: aimes.ConstantSpec(1 << 18)},
			{Name: "solve", Tasks: 8, DurationS: aimes.ConstantSpec(120),
				OutputBytes: aimes.ConstantSpec(1 << 10), Inputs: aimes.MapOneToOne},
		},
	}
	env, err := aimes.NewEnv(aimes.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	report := runApp(t, env, app, 11, aimes.StrategyConfig{
		Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2,
	})
	if report.UnitsDone != 16 {
		t.Fatalf("done = %d, want 16", report.UnitsDone)
	}
}

// TestNarrowUnitsBackfillPastWideOnes: late binding offers a pilot's free
// cores to the units behind a wide one that does not fit. Seven-core tasks
// leave 96-core pilots four cores short of the next one, and the one-core
// units their first wave makes ready take them while wide units still wait.
func TestNarrowUnitsBackfillPastWideOnes(t *testing.T) {
	app := aimes.AppSpec{
		Name: "wide-narrow",
		Stages: []aimes.StageSpec{
			{Name: "wide", Tasks: 24, CoresPerTask: 7, DurationS: aimes.ConstantSpec(300), OutputBytes: aimes.ConstantSpec(1 << 10)},
			{Name: "narrow", Tasks: 24, DurationS: aimes.ConstantSpec(60), OutputBytes: aimes.ConstantSpec(1 << 10), Inputs: aimes.MapOneToOne},
		},
	}
	env, err := aimes.NewEnv(aimes.WithSeed(11), aimes.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	w, err := aimes.GenerateWorkload(app, 11)
	if err != nil {
		t.Fatal(err)
	}
	j, err := env.Submit(context.Background(), w, aimes.JobConfig{StrategyConfig: aimes.StrategyConfig{
		Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2, Selection: aimes.SelectRandom}})
	if err != nil {
		t.Fatal(err)
	}
	if r, err := j.Wait(context.Background()); err != nil || r.UnitsDone != 48 {
		t.Fatalf("report %+v, %v; want 48 units done", r, err)
	}
	var firstNarrow, lastWide time.Duration
	for ev := range j.Events() {
		switch {
		case ev.State != "EXECUTING":
		case strings.HasPrefix(ev.Entity, "unit.narrow.") && firstNarrow == 0:
			firstNarrow = ev.Time
		case strings.HasPrefix(ev.Entity, "unit.wide."):
			lastWide = ev.Time
		}
	}
	if firstNarrow == 0 || firstNarrow >= lastWide {
		t.Fatalf("the first one-core unit executed at %v, the last seven-core one at %v: no narrow unit passed a waiting wide one", firstNarrow, lastWide)
	}
}

func TestMonitorThroughFacade(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	m := env.NewMonitor(time.Minute)
	fired := 0
	if err := m.Subscribe(aimes.Condition{
		Resource: "gordon", Metric: "free_nodes", Op: ">", Threshold: 1,
	}, func(aimes.MonitorEvent) { fired++ }); err != nil {
		t.Fatal(err)
	}
	// Running a workload advances virtual time, so the monitor polls.
	runApp(t, env, aimes.BagOfTasks(8, aimes.UniformDuration()), 13, aimes.StrategyConfig{
		Binding: aimes.EarlyBinding, Scheduler: aimes.SchedDirect, Pilots: 1,
	})
	m.Stop()
	if fired != 1 {
		t.Fatalf("monitor fired %d times, want 1 (edge-triggered)", fired)
	}
}

// TestMonitorUnderConcurrentWait: NewMonitor, Subscribe and Stop arm, extend
// and cancel what the shard's engine fires, so they serialize with a waiter
// pumping it. Run under -race: the monitors come and go on one goroutine
// while another waits on a 512-task job of the same shard.
func TestMonitorUnderConcurrentWait(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(13), aimes.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(512, aimes.UniformDuration()), 13)
	if err != nil {
		t.Fatal(err)
	}
	j, err := env.Submit(context.Background(), w, aimes.JobConfig{StrategyConfig: aimes.StrategyConfig{
		Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 3}})
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() {
		_, err := j.Wait(context.Background())
		waited <- err
	}()
	fired := 0 // written by subscribers, under the shard's serialization
	for monitors := 0; ; monitors++ {
		m := env.NewMonitor(time.Minute)
		if err := m.Subscribe(aimes.Condition{
			Resource: "gordon", Metric: "free_nodes", Op: ">", Threshold: 1,
		}, func(aimes.MonitorEvent) { fired++ }); err != nil {
			t.Fatal(err)
		}
		m.Stop()
		select {
		case err := <-waited:
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d monitors started and stopped during the wait, %d events", monitors+1, fired)
			return
		default:
		}
	}
}
