package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"aimes/internal/pilot"
	"aimes/internal/sim"
	"aimes/internal/trace"
)

// The span algebra (interval unions) that turns a trace into the paper's
// overlap-aware TTC decomposition. Product code has not called it since the
// report became an accumulator (pilot.UnitManager.Covered); it lives here, with
// its own tests, as the reference the accumulators are held to.

// Span is a half-open interval [Start, End) in virtual time.
type Span struct {
	Start, End sim.Time
}

// Valid reports whether the span is well-formed (End >= Start).
func (s Span) Valid() bool { return s.End >= s.Start }

// Duration returns End - Start, or 0 for invalid spans.
func (s Span) Duration() sim.Time {
	if !s.Valid() {
		return 0
	}
	return s.End - s.Start
}

// Overlaps reports whether s and o share any point.
func (s Span) Overlaps(o Span) bool {
	return s.Start < o.End && o.Start < s.End
}

// Union merges spans into a minimal set of disjoint spans and returns the
// total covered time. Invalid and empty spans are ignored. This is how the
// paper's Tw, Tx and Ts are defined over per-entity spans so that
// concurrent activity is not double counted.
func Union(spans []Span) (merged []Span, total sim.Time) {
	var clean []Span
	for _, s := range spans {
		if s.Valid() && s.End > s.Start {
			clean = append(clean, s)
		}
	}
	if len(clean) == 0 {
		return nil, 0
	}
	sort.Slice(clean, func(i, j int) bool {
		if clean[i].Start != clean[j].Start {
			return clean[i].Start < clean[j].Start
		}
		return clean[i].End < clean[j].End
	})
	cur := clean[0]
	for _, s := range clean[1:] {
		if s.Start <= cur.End {
			if s.End > cur.End {
				cur.End = s.End
			}
			continue
		}
		merged = append(merged, cur)
		total += cur.Duration()
		cur = s
	}
	merged = append(merged, cur)
	total += cur.Duration()
	return merged, total
}

// UnionDuration returns just the covered time of Union.
func UnionDuration(spans []Span) sim.Time {
	_, total := Union(spans)
	return total
}

// Envelope returns the smallest span covering all valid spans, and false when
// there are none.
func Envelope(spans []Span) (Span, bool) {
	found := false
	var env Span
	for _, s := range spans {
		if !s.Valid() {
			continue
		}
		if !found {
			env = s
			found = true
			continue
		}
		if s.Start < env.Start {
			env.Start = s.Start
		}
		if s.End > env.End {
			env.End = s.End
		}
	}
	return env, found
}

// SpansBetween extracts, for every entity matching the prefix, the span from
// its first fromState record to its first toState record at or after it.
// Entities missing either state are skipped.
func SpansBetween(r *trace.Recorder, entityPrefix, fromState, toState string) []Span {
	starts := map[string]sim.Time{}
	var order []string
	for _, rec := range r.Records() {
		if !strings.HasPrefix(rec.Entity, entityPrefix) || rec.State != fromState {
			continue
		}
		if _, ok := starts[rec.Entity]; !ok {
			starts[rec.Entity] = rec.Time
			order = append(order, rec.Entity)
		}
	}
	var spans []Span
	for _, entity := range order {
		from := starts[entity]
		best := sim.Forever
		for _, rec := range r.Records() {
			if rec.Entity == entity && rec.State == toState && rec.Time >= from && rec.Time < best {
				best = rec.Time
			}
		}
		if best != sim.Forever {
			spans = append(spans, Span{Start: from, End: best})
		}
	}
	return spans
}

// componentSpans is where buildReport took Tx and Ts from until the unit
// manager accumulated them (pilot.UnitManager.Covered): replay the trace —
// for every unit entity, each EXECUTING / STAGING_* record opens a span that
// the entity's next record closes — and take UnionDuration of each
// list. It is the reference the accumulators are held to below. Entities are
// keyed by name, so it is only right for a recorder one execution wrote.
func componentSpans(rec *trace.Recorder, since sim.Time) (exec, stage []Span) {
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
			span := Span{Start: prev.at, End: record.Time}
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
func componentSpansSorting(rec *trace.Recorder, since sim.Time) (exec, stage []Span) {
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
			span := Span{Start: record.Time, End: records[i+1].Time}
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
	sorted := func(spans []Span) []Span {
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
		if got, want := UnionDuration(gotExec), UnionDuration(wantExec); got != want {
			t.Fatalf("seed %d: Tx %v, sorting implementation %v", seed, got, want)
		}
		if got, want := UnionDuration(gotStage), UnionDuration(wantStage); got != want {
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
	s, err := Derive(w, e.bndl, dispatch, StrategyConfig{
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
	ex := e.enact(t, &Descriptor{Workload: w, Strategy: &s, Adaptive: &acfg}, ExecOptions{Sink: recorderSink{rec}})
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
	if !ex.done {
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
		report := ex.report
		execSpans, stageSpans := componentSpans(rec, ex.started)
		if want := UnionDuration(execSpans).Duration(); report.Tx != want {
			t.Errorf("seed %d: accumulated Tx %v, replay %v", seed, report.Tx, want)
		}
		if want := UnionDuration(stageSpans).Duration(); report.Ts != want {
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
			s, err := Derive(w, e.bndl, dispatch, StrategyConfig{
				Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 3, Selection: SelectRandom,
			}, e.mgr.rng)
			if err != nil {
				t.Fatal(err)
			}
			opts := ExecOptions{Sink: recorderSink{shared}}
			if private {
				opts.Sink = recorderSink{trace.NewRecorder()}
			}
			execs[k] = e.enact(t, pinned(w, s), opts)
		}
		start(0)
		e.eng.At(sim.Time(5*time.Minute), func() {
			if execs[0].done {
				t.Fatal("the first bag finished before the second started")
			}
			start(1)
		})
		e.eng.Run()
		var reports [2]*Report
		for k, ex := range execs {
			if !ex.done {
				t.Fatalf("bag %d: %v", k, ex.IncompleteError())
			}
			reports[k] = ex.report
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

func at(sec int) sim.Time { return sim.Time(time.Duration(sec) * time.Second) }

func TestSpanBasics(t *testing.T) {
	s := Span{Start: at(1), End: at(3)}
	if !s.Valid() || s.Duration() != at(2) {
		t.Fatalf("span basics wrong: %+v", s)
	}
	bad := Span{Start: at(3), End: at(1)}
	if bad.Valid() || bad.Duration() != 0 {
		t.Fatal("invalid span not handled")
	}
	if !s.Overlaps(Span{Start: at(2), End: at(5)}) {
		t.Fatal("overlapping spans not detected")
	}
	if s.Overlaps(Span{Start: at(3), End: at(5)}) {
		t.Fatal("half-open spans should not overlap at the boundary")
	}
}

func TestUnionMergesOverlaps(t *testing.T) {
	spans := []Span{
		{at(0), at(10)},
		{at(5), at(15)},  // overlaps first
		{at(15), at(20)}, // adjacent: merges
		{at(30), at(40)}, // disjoint
		{at(7), at(7)},   // empty: ignored
		{at(9), at(2)},   // invalid: ignored
	}
	merged, total := Union(spans)
	if len(merged) != 2 {
		t.Fatalf("merged = %+v, want 2 spans", merged)
	}
	if merged[0].Start != at(0) || merged[0].End != at(20) {
		t.Fatalf("first merged span = %+v", merged[0])
	}
	if total != at(30) {
		t.Fatalf("total = %v, want 30s", total)
	}
}

func TestUnionEmpty(t *testing.T) {
	merged, total := Union(nil)
	if merged != nil || total != 0 {
		t.Fatal("empty union should be nil, 0")
	}
}

func TestEnvelope(t *testing.T) {
	env, ok := Envelope([]Span{{at(5), at(8)}, {at(1), at(3)}, {at(6), at(20)}})
	if !ok || env.Start != at(1) || env.End != at(20) {
		t.Fatalf("envelope = %+v ok=%v", env, ok)
	}
	if _, ok := Envelope(nil); ok {
		t.Fatal("empty envelope reported ok")
	}
}

func TestSpansBetween(t *testing.T) {
	r := trace.NewRecorder()
	r.Record(at(0), "unit.1", "EXECUTING", "")
	r.Record(at(10), "unit.1", "DONE", "")
	r.Record(at(5), "unit.2", "EXECUTING", "")
	r.Record(at(12), "unit.2", "DONE", "")
	r.Record(at(7), "unit.3", "EXECUTING", "")  // never done: skipped
	r.Record(at(3), "pilot.a", "EXECUTING", "") // different prefix
	spans := SpansBetween(r, "unit.", "EXECUTING", "DONE")
	if len(spans) != 2 {
		t.Fatalf("spans = %+v, want 2", spans)
	}
	total := UnionDuration(spans)
	if total != at(12) {
		t.Fatalf("union duration = %v, want 12s", total)
	}
}

func TestSpansBetweenUsesFirstTransition(t *testing.T) {
	r := trace.NewRecorder()
	r.Record(at(2), "unit.1", "EXECUTING", "")
	r.Record(at(4), "unit.1", "EXECUTING", "") // restart: first one counts
	r.Record(at(9), "unit.1", "DONE", "")
	spans := SpansBetween(r, "unit.", "EXECUTING", "DONE")
	if len(spans) != 1 || spans[0].Start != at(2) || spans[0].End != at(9) {
		t.Fatalf("spans = %+v", spans)
	}
}

// Property: union total never exceeds envelope length and never exceeds the
// sum of individual durations.
func TestUnionBoundsProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		var spans []Span
		var sum sim.Time
		for i := 0; i+1 < len(raw); i += 2 {
			s := Span{at(int(raw[i])), at(int(raw[i]) + int(raw[i+1]))}
			spans = append(spans, s)
			sum += s.Duration()
		}
		_, total := Union(spans)
		if total > sum {
			return false
		}
		env, ok := Envelope(spans)
		if !ok {
			return total == 0
		}
		return total <= env.Duration()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: union output spans are disjoint and sorted.
func TestUnionDisjointProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		var spans []Span
		for i := 0; i+1 < len(raw); i += 2 {
			spans = append(spans, Span{at(int(raw[i])), at(int(raw[i]) + int(raw[i+1]))})
		}
		merged, _ := Union(spans)
		if !sort.SliceIsSorted(merged, func(i, j int) bool { return merged[i].Start < merged[j].Start }) {
			return false
		}
		for i := 1; i < len(merged); i++ {
			if merged[i].Start <= merged[i-1].End {
				return false // must be strictly separated, else they'd merge
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// ExampleUnion shows the overlap-aware span algebra behind the paper's
// Figure 3: concurrent activity is not double counted, so TTC < Tw+Tx+Ts.
func ExampleUnion() {
	spans := []Span{
		{Start: at(0), End: at(10)},
		{Start: at(5), End: at(15)}, // overlaps the first
		{Start: at(20), End: at(25)},
	}
	merged, total := Union(spans)
	fmt.Printf("%d disjoint spans covering %.0fs\n", len(merged), total.Seconds())
	// Output:
	// 2 disjoint spans covering 20s
}
