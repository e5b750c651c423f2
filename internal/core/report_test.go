package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"aimes/internal/pilot"
	"aimes/internal/sim"
	"aimes/internal/trace"
)

// componentSpans is where buildReport took Tx and Ts from until the unit
// manager accumulated them (pilot.UnitManager.Covered): replay the trace —
// for every unit entity, each EXECUTING / STAGING_* record opens a span that
// the entity's next record closes — and take trace.UnionDuration of each
// list. It is the reference the accumulators are held to below. Entities are
// keyed by name, so it is only right for a recorder one execution wrote.
func componentSpans(rec *trace.Recorder, since sim.Time) (exec, stage []trace.Span) {
	type open struct {
		at    sim.Time
		state string
	}
	last := make(map[string]open)
	for _, record := range rec.Records() {
		if record.Time < since || !strings.HasPrefix(record.Entity, "unit.") {
			continue
		}
		if prev, ok := last[record.Entity]; ok {
			span := trace.Span{Start: prev.at, End: record.Time}
			switch prev.state {
			case "EXECUTING":
				exec = append(exec, span)
			case "STAGING_INPUT", "STAGING_OUTPUT":
				stage = append(stage, span)
			}
		}
		last[record.Entity] = open{record.Time, record.State}
	}
	return exec, stage
}

// componentSpansSorting is componentSpans as it was before it became a
// single pass: copy every unit record into a per-entity slice, sort each by
// time, and pair neighbours.
func componentSpansSorting(rec *trace.Recorder, since sim.Time) (exec, stage []trace.Span) {
	perEntity := make(map[string][]trace.Record)
	for _, record := range rec.Records() {
		if record.Time < since {
			continue
		}
		if len(record.Entity) < 5 || record.Entity[:5] != "unit." {
			continue
		}
		perEntity[record.Entity] = append(perEntity[record.Entity], record)
	}
	for _, records := range perEntity {
		sort.SliceStable(records, func(i, j int) bool { return records[i].Time < records[j].Time })
		for i, record := range records {
			if i+1 >= len(records) {
				continue
			}
			span := trace.Span{Start: record.Time, End: records[i+1].Time}
			switch record.State {
			case "EXECUTING":
				exec = append(exec, span)
			case "STAGING_INPUT", "STAGING_OUTPUT":
				stage = append(stage, span)
			}
		}
	}
	return exec, stage
}

// randomTrace writes what an engine would: records in time order, many at
// the same instant, for units that run straight through, restart
// (EXECUTING → AGENT_QUEUED), lose their pilot (→ SCHEDULING) or end early,
// interleaved with pilot and manager records and preceded by an earlier
// job's records on the same recorder.
func randomTrace(rng *rand.Rand) (rec *trace.Recorder, since sim.Time) {
	next := map[string][]string{
		"NEW":            {"SCHEDULING"},
		"SCHEDULING":     {"STAGING_INPUT", "STAGING_INPUT", "STAGING_INPUT", "CANCELED", "FAILED"},
		"STAGING_INPUT":  {"AGENT_QUEUED", "AGENT_QUEUED", "AGENT_QUEUED", "SCHEDULING"},
		"AGENT_QUEUED":   {"EXECUTING", "EXECUTING", "EXECUTING", "SCHEDULING"},
		"EXECUTING":      {"STAGING_OUTPUT", "STAGING_OUTPUT", "DONE", "AGENT_QUEUED", "SCHEDULING", "FAILED"},
		"STAGING_OUTPUT": {"DONE", "DONE", "CANCELED"},
	}
	rec = trace.NewRecorder()
	var now sim.Time
	tick := func() {
		if rng.Intn(3) > 0 {
			now = now.Add(time.Duration(rng.Intn(90)) * time.Second)
		}
	}
	run := func(units int) {
		state := make([]string, units)
		live := units
		for live > 0 {
			tick()
			switch rng.Intn(10) {
			case 0:
				rec.Record(now, fmt.Sprintf("pilot.site%d.0", rng.Intn(3)), "ACTIVE", "")
				continue
			case 1:
				rec.Record(now, "em", "ADAPTING", "")
				continue
			}
			i := rng.Intn(units)
			var to string
			switch choices := next[state[i]]; {
			case state[i] == "":
				to = "NEW"
			case choices == nil:
				continue // already final
			default:
				to = choices[rng.Intn(len(choices))]
			}
			state[i] = to
			if next[to] == nil {
				live--
			}
			rec.Record(now, fmt.Sprintf("unit.%04d", i), to, "")
		}
	}
	run(rng.Intn(20)) // an earlier job with the same unit names
	now = now.Add(time.Second)
	since = now
	run(1 + rng.Intn(60))
	return rec, since
}

// TestComponentSpansMatchesSortingImplementation holds the single pass to
// the implementation it replaced: the same spans (in whatever order) and so
// the same Tx and Ts.
func TestComponentSpansMatchesSortingImplementation(t *testing.T) {
	sorted := func(spans []trace.Span) []trace.Span {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].End < spans[j].End
		})
		return spans
	}
	spans := 0
	for seed := int64(1); seed <= 200; seed++ {
		rec, since := randomTrace(rand.New(rand.NewSource(seed)))
		gotExec, gotStage := componentSpans(rec, since)
		wantExec, wantStage := componentSpansSorting(rec, since)
		if got, want := trace.UnionDuration(gotExec), trace.UnionDuration(wantExec); got != want {
			t.Fatalf("seed %d: Tx %v, sorting implementation %v", seed, got, want)
		}
		if got, want := trace.UnionDuration(gotStage), trace.UnionDuration(wantStage); got != want {
			t.Fatalf("seed %d: Ts %v, sorting implementation %v", seed, got, want)
		}
		if got, want := fmt.Sprint(sorted(gotExec)), fmt.Sprint(sorted(wantExec)); got != want {
			t.Fatalf("seed %d: execution spans\n%s\nsorting implementation\n%s", seed, got, want)
		}
		if got, want := fmt.Sprint(sorted(gotStage)), fmt.Sprint(sorted(wantStage)); got != want {
			t.Fatalf("seed %d: staging spans\n%s\nsorting implementation\n%s", seed, got, want)
		}
		spans += len(wantExec) + len(wantStage)
	}
	if spans == 0 {
		t.Fatal("the generator produced no span")
	}
}

// disturbedRun enacts one seeded bag on a fresh environment, with a recorder
// of its own, under the disturbances the seed draws — units failing mid-run
// and restarting, a pilot preempted seconds after it activates (while units
// stage their inputs to it) and perhaps replaced, an extra pilot added for
// want of an active one, the whole execution canceled part-way — and runs the
// engine dry.
func disturbedRun(t *testing.T, seed int64) (*Execution, *trace.Recorder) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pcfg := pilot.DefaultConfig()
	if rng.Intn(2) == 0 {
		pcfg.UnitFailureProb = 0.2
	}
	e := newEnvWith(t, seed, pcfg)
	w := botWorkload(t, 16<<rng.Intn(4), seed)
	s, err := Derive(w, e.bndl, StrategyConfig{
		Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 1 + rng.Intn(3), Selection: SelectRandom,
	}, e.mgr.rng)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	acfg := AdaptiveConfig{
		Patience:          time.Duration(1+rng.Intn(30)) * time.Minute,
		MaxExtraPilots:    1,
		ReplaceLostPilots: rng.Intn(2) == 0,
	}
	ex := e.enact(t, w, s, ExecOptions{Recorder: rec, Adaptive: &acfg})
	if rng.Intn(3) > 0 {
		after := time.Duration(rng.Intn(40)) * time.Second
		for _, p := range ex.Pilots() {
			p.OnState(func(p *pilot.Pilot) {
				if p.State() == pilot.PilotActive {
					e.eng.Schedule(after, func() { ex.PreemptPilot(p.Resource(), "test") })
				}
			})
		}
	}
	if rng.Intn(4) == 0 {
		e.eng.Schedule(time.Duration(10+rng.Intn(110))*time.Minute, func() { ex.Cancel("test") })
	}
	e.eng.Run()
	if !ex.Done() {
		t.Fatalf("seed %d: %v", seed, ex.IncompleteError())
	}
	return ex, rec
}

// TestAccumulatedCoversMatchReplay is the proof that accumulating Tx and Ts
// at the unit transitions changed no report: over seeded disturbed runs the
// accumulators equal the replay of the execution's own trace to the
// nanosecond. It also checks that the runs were disturbed in every way that
// reopens or cuts short a span.
func TestAccumulatedCoversMatchReplay(t *testing.T) {
	var restarts, lostStaging, lostExecuting, canceled, extra int
	for seed := int64(1); seed <= 60; seed++ {
		ex, rec := disturbedRun(t, seed)
		report := ex.Report()
		execSpans, stageSpans := componentSpans(rec, ex.started)
		if want := trace.UnionDuration(execSpans).Duration(); report.Tx != want {
			t.Errorf("seed %d: accumulated Tx %v, replay %v", seed, report.Tx, want)
		}
		if want := trace.UnionDuration(stageSpans).Duration(); report.Ts != want {
			t.Errorf("seed %d: accumulated Ts %v, replay %v", seed, report.Ts, want)
		}
		restarts += report.TotalRestarts
		canceled += report.UnitsCanceled
		extra += report.ExtraPilots
		state := make(map[string]string)
		for _, r := range rec.Records() {
			if r.State == "SCHEDULING" && strings.HasSuffix(r.Detail, " lost") {
				switch state[r.Entity] {
				case "STAGING_INPUT":
					lostStaging++
				case "EXECUTING":
					lostExecuting++
				}
			}
			state[r.Entity] = r.State
		}
	}
	if restarts == 0 || lostStaging == 0 || lostExecuting == 0 || canceled == 0 || extra == 0 {
		t.Errorf("the runs lack a disturbance: %d restarts, %d units reclaimed mid-staging, %d mid-execution, %d canceled, %d extra pilots",
			restarts, lostStaging, lostExecuting, canceled, extra)
	}
}

// TestConcurrentExecutionsOnSharedRecorder: two bags enacted on one manager
// into one recorder — every bag names its tasks alike — report what they
// report with a private recorder each. The replay keyed open spans
// by entity name, so the second bag, started while the first ran, closed and
// reopened the first's spans.
func TestConcurrentExecutionsOnSharedRecorder(t *testing.T) {
	run := func(private bool) [2]*Report {
		e := newEnv(t, 5)
		shared := trace.NewRecorder()
		var execs [2]*Execution
		start := func(k int) {
			w := botWorkload(t, 64, int64(k+1))
			s, err := Derive(w, e.bndl, StrategyConfig{
				Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 3, Selection: SelectRandom,
			}, e.mgr.rng)
			if err != nil {
				t.Fatal(err)
			}
			opts := ExecOptions{Recorder: shared}
			if private {
				opts.Recorder = trace.NewRecorder()
			}
			execs[k] = e.enact(t, w, s, opts)
		}
		start(0)
		e.eng.At(sim.Time(5*time.Minute), func() {
			if execs[0].Done() {
				t.Fatal("the first bag finished before the second started")
			}
			start(1)
		})
		e.eng.Run()
		var reports [2]*Report
		for k, ex := range execs {
			if !ex.Done() {
				t.Fatalf("bag %d: %v", k, ex.IncompleteError())
			}
			reports[k] = ex.Report()
		}
		return reports
	}
	shared, private := run(false), run(true)
	for k := range shared {
		if !reflect.DeepEqual(shared[k], private[k]) {
			t.Errorf("bag %d on the shared recorder reports\n%+v\nwith a recorder of its own\n%+v", k, shared[k], private[k])
		}
	}
	if shared[0].Ts == 0 || shared[1].Ts == 0 {
		t.Errorf("no staging to conflate: Ts %v and %v", shared[0].Ts, shared[1].Ts)
	}
}
