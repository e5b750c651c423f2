package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"aimes/internal/sim"
	"aimes/internal/trace"
)

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
