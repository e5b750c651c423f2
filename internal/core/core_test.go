package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unsafe"

	"aimes/internal/bundle"
	"aimes/internal/netsim"
	"aimes/internal/pilot"
	"aimes/internal/saga"
	"aimes/internal/sim"
	"aimes/internal/site"
	"aimes/internal/skeleton"
	"aimes/internal/stats"
	"aimes/internal/trace"
)

// dispatch is the agent dispatch overhead the tests derive with: the
// default pilot configuration's, which newEnv's manager pays.
var dispatch = pilot.DefaultConfig().AgentDispatchOverhead

// env assembles a complete simulated environment around the default
// five-resource testbed.
type env struct {
	eng  *sim.Sim
	tb   *site.Testbed
	bndl *bundle.Bundle
	mgr  *Manager
	rec  *trace.Recorder // where run's execution records, through recorderSink
}

// recorderSink is an ExecOptions.Sink that writes its executions' records to
// rec and drops their reports, which the tests read off the executions.
type recorderSink struct{ rec *trace.Recorder }

func (s recorderSink) JobTrace(_ int, _ string, r trace.Record) {
	s.rec.Record(r.Time, r.Entity, r.State, r.Detail)
}

func (recorderSink) JobDone(int, *Report) {}

// reportSink is a recorderSink that also keeps the last report it was given.
type reportSink struct {
	recorderSink
	report *Report
}

func (s *reportSink) JobDone(_ int, r *Report) { s.report = r }

func newEnv(t *testing.T, seed int64) *env {
	t.Helper()
	return newEnvWith(t, seed, pilot.DefaultConfig())
}

func newEnvWith(t *testing.T, seed int64, pcfg pilot.Config) *env {
	t.Helper()
	eng := sim.NewSim()
	tb, err := site.NewTestbed(eng, site.DefaultTestbed(), sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	sess := saga.NewSession()
	for _, s := range tb.Sites() {
		sess.Register(saga.NewBatchAdaptor(eng, s))
	}
	b := bundle.New(tb.Sites())
	links := func(resource string) *netsim.Link { return tb.Site(resource).Link() }
	mgr := NewManager(eng, b, sess, links, pcfg, rand.New(rand.NewSource(seed)))
	return &env{eng: eng, tb: tb, bndl: b, mgr: mgr, rec: trace.NewRecorder()}
}

// pinned is the descriptor of w enacted with the pre-derived strategy s.
func pinned(w *skeleton.Workload, s Strategy) *Descriptor {
	return &Descriptor{Workload: w, Strategy: &s}
}

// enact takes one execution down the manager's only path: Prepare, then
// Enact.
func (e *env) enact(t *testing.T, d *Descriptor, opts ExecOptions) *Execution {
	t.Helper()
	ex, err := e.mgr.Prepare(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Enact(); err != nil {
		t.Fatal(err)
	}
	return ex
}

// wait steps the engine until ex is done, one event at a time as a backend's
// pump does — stepping rather than draining, so periodic components such as
// bundle monitors cannot keep it from returning.
func (e *env) wait(t *testing.T, ex *Execution) *Report {
	t.Helper()
	for !ex.done && e.eng.Step() {
	}
	if !ex.done {
		t.Fatal(ex.IncompleteError())
	}
	return ex.report
}

// run enacts a strategy for a workload, its trace going to e.rec, and waits
// for the report.
func (e *env) run(t *testing.T, w *skeleton.Workload, s Strategy) *Report {
	t.Helper()
	return e.wait(t, e.enact(t, pinned(w, s), ExecOptions{Sink: recorderSink{e.rec}}))
}

func botWorkload(t *testing.T, n int, seed int64) *skeleton.Workload {
	t.Helper()
	w, err := skeleton.Generate(skeleton.BagOfTasks(n, skeleton.UniformDuration()), seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestDeriveEarlyStrategyFollowsTableI(t *testing.T) {
	e := newEnv(t, 1)
	w := botWorkload(t, 128, 1)
	s, err := Derive(w, e.bndl, dispatch, StrategyConfig{
		Binding: EarlyBinding, Scheduler: SchedDirect, Pilots: 1, Selection: SelectRandom,
	}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Pilots != 1 || len(s.Resources) != 1 {
		t.Fatalf("pilots = %d resources = %v", s.Pilots, s.Resources)
	}
	if s.PilotCores != 128 {
		t.Fatalf("pilot cores = %d, want #tasks (Table I)", s.PilotCores)
	}
	// Walltime covers Tx (15m) + Ts + Trp with slack.
	if s.PilotWalltime < 15*time.Minute {
		t.Fatalf("walltime %v below task duration", s.PilotWalltime)
	}
	if s.PilotWalltime > 2*time.Hour {
		t.Fatalf("walltime %v absurdly long for 128 tasks", s.PilotWalltime)
	}
}

func TestDeriveLateStrategyFollowsTableI(t *testing.T) {
	e := newEnv(t, 1)
	w := botWorkload(t, 2048, 1)
	s, err := Derive(w, e.bndl, dispatch, StrategyConfig{
		Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 3, Selection: SelectRandom,
	}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Pilots != 3 || len(s.Resources) != 3 {
		t.Fatalf("pilots = %d resources = %v", s.Pilots, s.Resources)
	}
	if s.PilotCores != (2048+2)/3 {
		t.Fatalf("pilot cores = %d, want ceil(#tasks/#pilots)", s.PilotCores)
	}
	// Distinct resources.
	seen := map[string]bool{}
	for _, r := range s.Resources {
		if seen[r] {
			t.Fatalf("resource %s chosen twice", r)
		}
		seen[r] = true
	}
	// Late walltime ≈ 3× the early per-pilot budget.
	early, _ := Derive(w, e.bndl, dispatch, StrategyConfig{
		Binding: EarlyBinding, Pilots: 1, Selection: SelectRandom,
	}, rand.New(rand.NewSource(2)))
	if s.PilotWalltime < 2*early.PilotWalltime {
		t.Fatalf("late walltime %v not scaled by pilot count (early %v)",
			s.PilotWalltime, early.PilotWalltime)
	}
}

func TestDeriveRejects(t *testing.T) {
	e := newEnv(t, 1)
	w := botWorkload(t, 8, 1)
	empty := &skeleton.Workload{Name: "empty"}
	if _, err := Derive(empty, e.bndl, dispatch, StrategyConfig{}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("empty workload derived")
	}
	// More pilots than feasible resources.
	if _, err := Derive(w, e.bndl, dispatch, StrategyConfig{Pilots: 6, Selection: SelectRandom},
		rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("6 pilots on 5 resources derived")
	}
	// Fixed selection with too few resources.
	if _, err := Derive(w, e.bndl, dispatch, StrategyConfig{
		Pilots: 2, Selection: SelectFixed, FixedResources: []string{"stampede"},
	}, nil); err == nil {
		t.Fatal("underspecified fixed selection derived")
	}
	// Random selection without an RNG.
	if _, err := Derive(w, e.bndl, dispatch, StrategyConfig{Pilots: 1, Selection: SelectRandom}, nil); err == nil {
		t.Fatal("random selection without RNG derived")
	}
}

func TestDerivePredictedWaitSelection(t *testing.T) {
	e := newEnv(t, 1)
	// Prime history so predictions exist: gordon fastest, blacklight slowest.
	waits := map[string]float64{
		"stampede": 1200, "comet": 900, "gordon": 300, "blacklight": 3000, "hopper": 1500,
	}
	for name, wait := range waits {
		r := e.bndl.Resource(name)
		for i := 0; i < 50; i++ {
			r.ObserveWait(wait)
		}
	}
	w := botWorkload(t, 64, 1)
	s, err := Derive(w, e.bndl, dispatch, StrategyConfig{
		Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 3,
		Selection: SelectByPredictedWait,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"gordon", "comet", "stampede"}
	for i, r := range s.Resources {
		if r != want[i] {
			t.Fatalf("resources %v, want %v (sorted by predicted wait)", s.Resources, want)
		}
	}
}

func TestExecuteEarlyBindingEndToEnd(t *testing.T) {
	e := newEnv(t, 3)
	w := botWorkload(t, 64, 3)
	s, err := Derive(w, e.bndl, dispatch, StrategyConfig{
		Binding: EarlyBinding, Scheduler: SchedDirect, Pilots: 1, Selection: SelectRandom,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	report := e.run(t, w, s)
	if report.UnitsDone != 64 || report.UnitsFailed != 0 {
		t.Fatalf("units %d done %d failed", report.UnitsDone, report.UnitsFailed)
	}
	if report.TTC <= 0 || report.Tw <= 0 || report.Tx <= 0 || report.Ts <= 0 {
		t.Fatalf("degenerate components: %+v", report)
	}
	// Execution takes at least the task duration.
	if report.Tx < 15*time.Minute {
		t.Fatalf("Tx %v below task duration", report.Tx)
	}
	// Overlap: TTC must be less than the plain sum.
	if report.TTC >= report.Tw+report.Tx+report.Ts {
		t.Fatalf("no overlap: TTC %v vs sum %v", report.TTC, report.Tw+report.Tx+report.Ts)
	}
	// TTC ≈ Tw + Tx here (staging overlaps the wait).
	if report.TTC < report.Tw+15*time.Minute {
		t.Fatalf("TTC %v < Tw %v + task duration", report.TTC, report.Tw)
	}
	if report.PilotsActivated != 1 {
		t.Fatalf("activated %d pilots", report.PilotsActivated)
	}
	if report.Throughput <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestExecuteLateBindingEndToEnd(t *testing.T) {
	e := newEnv(t, 4)
	w := botWorkload(t, 128, 4)
	s, err := Derive(w, e.bndl, dispatch, StrategyConfig{
		Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 3, Selection: SelectRandom,
	}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	report := e.run(t, w, s)
	if report.UnitsDone != 128 {
		t.Fatalf("done %d, want 128", report.UnitsDone)
	}
	if report.PilotsActivated < 1 {
		t.Fatal("no pilot activated")
	}
	// All pilots canceled afterwards — not wasting allocation.
	// (CancelAll fires inside finish.)
	em, ok := e.rec.First("em", "DONE")
	if !ok {
		t.Fatal("missing EM DONE record")
	}
	if em.Time.Sub(sim.Time(0)) <= 0 {
		t.Fatal("EM DONE at epoch")
	}
}

// runStrategy executes one seeded run and returns its report.
func runStrategy(t *testing.T, seed int64, n int, cfg StrategyConfig) *Report {
	t.Helper()
	e := newEnv(t, seed)
	w := botWorkload(t, n, seed)
	s, err := Derive(w, e.bndl, dispatch, cfg, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	report := e.run(t, w, s)
	return report
}

func TestLateBindingBeatsEarlyBinding(t *testing.T) {
	// The paper's headline result: late binding over 3 pilots normalizes
	// the heavy-tailed queue wait. This is a statistical shape test over a
	// fixed, deterministic seed set: mean and 75th-percentile TTC must both
	// favor late binding, and late binding's Tw must be far smaller.
	const reps = 30
	var earlyTTC, lateTTC, earlyTw, lateTw []float64
	for i := int64(0); i < reps; i++ {
		re := runStrategy(t, 1000+i, 256, StrategyConfig{
			Binding: EarlyBinding, Scheduler: SchedDirect, Pilots: 1, Selection: SelectRandom,
		})
		rl := runStrategy(t, 1000+i, 256, StrategyConfig{
			Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 3, Selection: SelectRandom,
		})
		earlyTTC = append(earlyTTC, re.TTC.Seconds())
		lateTTC = append(lateTTC, rl.TTC.Seconds())
		earlyTw = append(earlyTw, re.Tw.Seconds())
		lateTw = append(lateTw, rl.Tw.Seconds())
	}
	meanE := mean(earlyTTC)
	meanL := mean(lateTTC)
	if meanL >= meanE {
		t.Fatalf("late mean TTC %.0fs not below early %.0fs", meanL, meanE)
	}
	if p75L, p75E := stats.Quantile(lateTTC, 0.75), stats.Quantile(earlyTTC, 0.75); p75L >= p75E {
		t.Fatalf("late P75 TTC %.0fs not below early %.0fs", p75L, p75E)
	}
	meanTwE := mean(earlyTw)
	meanTwL := mean(lateTw)
	if meanTwL*2 >= meanTwE {
		t.Fatalf("late Tw %.0fs not well below early Tw %.0fs", meanTwL, meanTwE)
	}
	// Both sit in the paper's observed bands (600–8600 s vs 99–2800 s).
	if meanTwE < 600 || meanTwE > 8600 {
		t.Fatalf("early Tw mean %.0fs outside the paper's observed band", meanTwE)
	}
	if meanTwL < 99 || meanTwL > 2800 {
		t.Fatalf("late Tw mean %.0fs outside the paper's observed band", meanTwL)
	}
}

func TestReportSummaryOutput(t *testing.T) {
	e := newEnv(t, 5)
	w := botWorkload(t, 8, 5)
	s, err := Derive(w, e.bndl, dispatch, StrategyConfig{
		Binding: EarlyBinding, Pilots: 1, Selection: SelectRandom,
	}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	report := e.run(t, w, s)
	var buf bytes.Buffer
	if err := report.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"TTC", "Tw", "Tx", "Ts", "8 done"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestExecuteValidatesStrategy(t *testing.T) {
	e := newEnv(t, 6)
	w := botWorkload(t, 8, 6)
	if _, err := e.mgr.Prepare(pinned(w, Strategy{}), ExecOptions{Sink: recorderSink{e.rec}}); err == nil {
		t.Fatal("zero strategy accepted")
	}
	bad := Strategy{
		Binding: EarlyBinding, Scheduler: SchedDirect, Pilots: 1,
		Resources: []string{"atlantis"}, PilotCores: 8, PilotWalltime: time.Hour,
	}
	if _, err := e.mgr.Prepare(pinned(w, bad), ExecOptions{}); err == nil {
		t.Fatal("execution without a trace sink accepted")
	}
	ex, err := e.mgr.Prepare(pinned(w, bad), ExecOptions{Sink: recorderSink{e.rec}})
	if err == nil {
		err = ex.Enact()
	}
	if err == nil {
		t.Fatal("unknown resource accepted")
	}
}

func TestStrategyStrings(t *testing.T) {
	if EarlyBinding.String() != "early" || LateBinding.String() != "late" {
		t.Fatal("binding strings")
	}
	if SchedBackfill.String() != "backfill" || SchedDirect.String() != "direct" ||
		SchedRoundRobin.String() != "round-robin" {
		t.Fatal("scheduler strings")
	}
	if SelectRandom.String() != "random" || SelectByPredictedWait.String() != "predicted-wait" ||
		SelectFixed.String() != "fixed" {
		t.Fatal("selection strings")
	}
	s := Strategy{Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 3,
		Resources: []string{"a", "b", "c"}, PilotCores: 10, PilotWalltime: time.Hour}
	if !strings.Contains(s.String(), "late binding") {
		t.Fatalf("strategy string %q", s.String())
	}
}

// TestStrategyStringMatchesSprintf holds the ENACTING detail, built with
// appends, to the fmt.Sprintf it replaced, byte for byte.
func TestStrategyStringMatchesSprintf(t *testing.T) {
	sprintf := func(s Strategy) string {
		return fmt.Sprintf("%s binding, %s scheduler, %d pilot(s) × %d cores, walltime %s, on %v",
			s.Binding, s.Scheduler, s.Pilots, s.PilotCores, s.PilotWalltime, s.Resources)
	}
	resources := [][]string{nil, {}, {"stampede"}, {"a", "b"}, {"comet", "gordon", "a-very-long-resource-name-that-outgrows-the-stack-buffer"}}
	walltimes := []time.Duration{0, 500 * time.Millisecond, 90 * time.Second, 36 * time.Hour, -time.Minute}
	for _, res := range resources {
		for _, wt := range walltimes {
			for _, b := range []Binding{EarlyBinding, LateBinding, Binding(7)} {
				for _, sched := range []SchedulerKind{SchedDirect, SchedRoundRobin, SchedBackfill} {
					s := Strategy{Binding: b, Scheduler: sched, Pilots: len(res), Resources: res,
						PilotCores: 1 << (3 * len(res)), PilotWalltime: wt}
					if len(res) == 2 {
						s.Pilots, s.PilotCores = -3, 2048
					}
					if got, want := s.String(), sprintf(s); got != want {
						t.Fatalf("String() = %q, Sprintf gives %q", got, want)
					}
				}
			}
		}
	}
}

func TestUnitsByResourceBreakdown(t *testing.T) {
	e := newEnv(t, 90)
	w := botWorkload(t, 48, 90)
	s, err := Derive(w, e.bndl, dispatch, StrategyConfig{
		Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 3, Selection: SelectRandom,
	}, rand.New(rand.NewSource(90)))
	if err != nil {
		t.Fatal(err)
	}
	report := e.run(t, w, s)
	total := 0
	for resource, n := range report.UnitsByResource {
		if n <= 0 {
			t.Fatalf("resource %s counted %d units", resource, n)
		}
		total += n
	}
	if total != report.UnitsDone {
		t.Fatalf("breakdown sums to %d, want %d", total, report.UnitsDone)
	}
}

// TestPrepareEnactBoundary covers the queued-vs-enacted split migration
// relies on: a prepared execution holds no engine state and draws no
// randomness, and Enact crosses the line exactly once.
func TestPrepareEnactBoundary(t *testing.T) {
	e := newEnv(t, 5)
	w := botWorkload(t, 8, 5)
	s, err := Derive(w, e.bndl, dispatch, StrategyConfig{
		Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 2,
	}, e.mgr.rng)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := e.mgr.Prepare(pinned(w, s), ExecOptions{Sink: recorderSink{e.rec}})
	if err != nil {
		t.Fatal(err)
	}
	if exec.enacted {
		t.Fatal("prepared execution reports enacted")
	}
	if e.eng.Pending() != 0 {
		t.Fatalf("preparation scheduled %d events", e.eng.Pending())
	}
	if got := e.rec.Len(); got != 0 {
		t.Fatalf("preparation recorded %d trace records", got)
	}
	if exec.Pilots() != nil {
		t.Fatal("prepared execution exposes pilots")
	}
	for range exec.um.All() {
		t.Fatal("prepared execution exposes units")
	}
	if err := exec.Enact(); err != nil {
		t.Fatal(err)
	}
	if !exec.enacted {
		t.Fatal("enacted execution reports prepared")
	}
	if e.eng.Pending() == 0 {
		t.Fatal("enactment scheduled nothing")
	}
	if err := exec.Enact(); err == nil {
		t.Fatal("double Enact accepted")
	}
	if r := e.wait(t, exec); r.UnitsDone != 8 {
		t.Fatalf("units done %d, want 8", r.UnitsDone)
	}
}

// TestCancelPreparedExecution cancels before Enact: the execution completes
// immediately with every unit accounted as canceled and no engine activity.
func TestCancelPreparedExecution(t *testing.T) {
	e := newEnv(t, 6)
	w := botWorkload(t, 5, 6)
	s, err := Derive(w, e.bndl, dispatch, StrategyConfig{
		Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 1,
	}, e.mgr.rng)
	if err != nil {
		t.Fatal(err)
	}
	sink := &reportSink{recorderSink: recorderSink{e.rec}}
	exec, err := e.mgr.Prepare(pinned(w, s), ExecOptions{Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	exec.Cancel("tenant gave up")
	got := sink.report
	if !exec.done || !exec.canceled {
		t.Fatal("canceled prepared execution not done")
	}
	if got == nil || got.UnitsCanceled != 5 || got.UnitsDone != 0 {
		t.Fatalf("canceled report = %+v", got)
	}
	if got.TTC != 0 {
		t.Fatalf("canceled-before-enactment TTC = %v, want 0", got.TTC)
	}
	if e.eng.Pending() != 0 {
		t.Fatalf("cancelation scheduled %d events", e.eng.Pending())
	}
}

// TestCanceledReportShape checks the standalone helper used for jobs
// canceled while still queued, before any strategy existed.
func TestCanceledReportShape(t *testing.T) {
	w := botWorkload(t, 3, 7)
	r := CanceledReport(w)
	if r.UnitsCanceled != 3 || r.UnitsDone != 0 || r.TTC != 0 {
		t.Fatalf("CanceledReport = %+v", r)
	}
	if r.PilotWaits == nil || r.UnitsByResource == nil {
		t.Fatal("CanceledReport maps not initialized")
	}
}

// mean is the arithmetic mean of xs.
func mean(xs []float64) float64 {
	var s stats.Summary
	for _, x := range xs {
		s.Add(x)
	}
	return s.Mean()
}

// TestExecutionFootprint pins the size of a job's engine slab, the execution
// with its pilot system and managers inside. The runtime adds an 8-byte
// header to an object over 512 bytes that holds pointers, so up to 1 016
// bytes the slab is one 1 024-byte block and one byte more makes it a
// 1 152-byte one: 128 bytes more per job (0.6% of tenants-burst's
// alloc_kb_per_job, measured when each pilot's staging details joined the
// unit manager and the slab read 1 024 bytes). The pin is the size itself,
// so a field that grows the slab is a decision, not a drift toward the class
// edge: 976 bytes since the execution holds its job's log and stream,
// resolved once, and the unit manager its units' ids, which their records
// are coded against (944 before, since the task index is held once).
func TestExecutionFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Execution{}); got > 976 {
		t.Errorf("core.Execution is %d bytes, want at most 976", got)
	}
}
