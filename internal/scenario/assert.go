package scenario

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"

	"aimes/internal/core"
	"aimes/internal/trace"
)

// Assertion kinds.
const (
	// AssertState checks final job states: all jobs (or exactly Count jobs)
	// must end in Want ("done", "failed", or "canceled").
	AssertState = "state"
	// AssertReport bounds a numeric report field (see reportField for the
	// vocabulary) of one job (Job, default 0) between Min and Max.
	AssertReport = "report"
	// AssertTrace counts trace records matching the entity/state/detail
	// predicates and bounds the count between MinCount and MaxCount
	// (default: at least 1).
	AssertTrace = "trace"
	// AssertThroughput is a floor on units/hour: every job with a report
	// must clear Min.
	AssertThroughput = "throughput"
	// AssertFleet bounds a fleet statistic (restarts, replayed,
	// endpoints_cordoned, endpoints_unhealthy) between Min and Max.
	AssertFleet = "fleet"
	// AssertModel bounds the cost model's prediction error over the run's
	// completed jobs: Field selects mean_rel_error (default) or
	// max_rel_error, Min/Max bound it. Requires a fleet section — its job
	// fan-out is the population the predictions are scored over.
	AssertModel = "model"
	// AssertLatency bounds a percentile of per-unit latency (seconds from a
	// unit's first trace record to its DONE record): Percentile selects
	// e.g. 50, 95 or 99, Min/Max bound the value. EntityPrefix narrows the
	// unit population (default "unit.").
	AssertLatency = "latency"
)

var knownAssertKinds = map[string]bool{
	AssertState: true, AssertReport: true, AssertTrace: true,
	AssertThroughput: true, AssertFleet: true, AssertModel: true,
	AssertLatency: true,
}

// Assertion is one declarative post-run check. Kind selects which fields
// apply; unknown kinds and malformed combinations are rejected at Validate
// time so a corpus scenario cannot silently assert nothing.
type Assertion struct {
	Kind string `json:"kind"`

	// state: the wanted final job state and optionally how many jobs must
	// be in it (nil Count means every job).
	Want  string `json:"want,omitempty"`
	Count *int   `json:"count,omitempty"`

	// report / fleet: the field name; Min/Max bound it (either may be
	// omitted). Job selects the job for report fields (default 0).
	// throughput: Min is the units/hour floor.
	Field string   `json:"field,omitempty"`
	Job   *int     `json:"job,omitempty"`
	Min   *float64 `json:"min,omitempty"`
	Max   *float64 `json:"max,omitempty"`

	// trace: predicate over the run's qualified trace records. latency
	// reuses EntityPrefix to narrow the unit population.
	Entity         string `json:"entity,omitempty"`
	EntityPrefix   string `json:"entity_prefix,omitempty"`
	State          string `json:"state,omitempty"`
	DetailContains string `json:"detail_contains,omitempty"`
	MinCount       *int   `json:"min_count,omitempty"`
	MaxCount       *int   `json:"max_count,omitempty"`

	// latency: which percentile of the per-unit latency distribution to
	// bound (0 < Percentile <= 100).
	Percentile *float64 `json:"percentile,omitempty"`
}

// modelFields is the model-assertion vocabulary ("" selects the default,
// mean_rel_error).
var modelFields = map[string]bool{"": true, "mean_rel_error": true, "max_rel_error": true}

// reportFields is the report-field vocabulary (field name → extractor).
// rescheduled and pilots_lost are outcome-level aggregates (they ignore
// Job); the rest read the selected job's report.
var reportFields = map[string]func(o *Outcome, r *core.Report) float64{
	"units_done":       func(_ *Outcome, r *core.Report) float64 { return float64(r.UnitsDone) },
	"units_failed":     func(_ *Outcome, r *core.Report) float64 { return float64(r.UnitsFailed) },
	"units_canceled":   func(_ *Outcome, r *core.Report) float64 { return float64(r.UnitsCanceled) },
	"total_restarts":   func(_ *Outcome, r *core.Report) float64 { return float64(r.TotalRestarts) },
	"pilots_activated": func(_ *Outcome, r *core.Report) float64 { return float64(r.PilotsActivated) },
	"extra_pilots":     func(_ *Outcome, r *core.Report) float64 { return float64(r.ExtraPilots) },
	"ttc_seconds":      func(_ *Outcome, r *core.Report) float64 { return r.TTC.Seconds() },
	"tw_seconds":       func(_ *Outcome, r *core.Report) float64 { return r.Tw.Seconds() },
	"tx_seconds":       func(_ *Outcome, r *core.Report) float64 { return r.Tx.Seconds() },
	"ts_seconds":       func(_ *Outcome, r *core.Report) float64 { return r.Ts.Seconds() },
	"throughput":       func(_ *Outcome, r *core.Report) float64 { return r.Throughput },
	"core_hours":       func(_ *Outcome, r *core.Report) float64 { return r.CoreHours },
	"busy_core_hours":  func(_ *Outcome, r *core.Report) float64 { return r.BusyCoreHours },
	"efficiency":       func(_ *Outcome, r *core.Report) float64 { return r.Efficiency },
	"rescheduled":      func(o *Outcome, _ *core.Report) float64 { return float64(o.Rescheduled) },
	"pilots_lost":      func(o *Outcome, _ *core.Report) float64 { return float64(o.PilotsLost) },
}

// fleetFields is the fleet-statistic vocabulary.
var fleetFields = map[string]func(f FleetOutcome) float64{
	"restarts":            func(f FleetOutcome) float64 { return float64(f.Restarts) },
	"replayed":            func(f FleetOutcome) float64 { return float64(f.Replayed) },
	"endpoints_cordoned":  func(f FleetOutcome) float64 { return float64(f.EndpointsCordoned) },
	"endpoints_unhealthy": func(f FleetOutcome) float64 { return float64(f.EndpointsUnhealthy) },
}

// validate checks one assertion against the scenario it belongs to,
// returning every problem found.
func (a Assertion) validate(s *Scenario) []error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	switch a.Kind {
	case AssertState:
		switch a.Want {
		case "done", "failed", "canceled":
		case "":
			fail("state assertion needs want (done, failed, or canceled)")
		default:
			fail("unknown job state %q (want done, failed, or canceled)", a.Want)
		}
		if a.Count != nil && *a.Count < 0 {
			fail("negative count %d", *a.Count)
		}
	case AssertReport:
		if _, ok := reportFields[a.Field]; !ok {
			fail("unknown report field %q (known: %v)", a.Field, slices.Sorted(maps.Keys(reportFields)))
		}
		if a.Min == nil && a.Max == nil {
			fail("report assertion needs min and/or max")
		}
		if a.Job != nil && *a.Job < 0 {
			fail("negative job index %d", *a.Job)
		}
	case AssertTrace:
		if a.Entity == "" && a.EntityPrefix == "" && a.State == "" && a.DetailContains == "" {
			fail("trace assertion needs at least one predicate (entity, entity_prefix, state, detail_contains)")
		}
		if a.MinCount != nil && *a.MinCount < 0 {
			fail("negative min_count %d", *a.MinCount)
		}
		if a.MaxCount != nil && *a.MaxCount < 0 {
			fail("negative max_count %d", *a.MaxCount)
		}
		if a.MinCount != nil && a.MaxCount != nil && *a.MinCount > *a.MaxCount {
			fail("min_count %d exceeds max_count %d", *a.MinCount, *a.MaxCount)
		}
	case AssertThroughput:
		if a.Min == nil || *a.Min <= 0 {
			fail("throughput assertion needs min > 0 (units/hour)")
		}
	case AssertFleet:
		if _, ok := fleetFields[a.Field]; !ok {
			fail("unknown fleet field %q (known: %v)", a.Field, slices.Sorted(maps.Keys(fleetFields)))
		}
		if a.Min == nil && a.Max == nil {
			fail("fleet assertion needs min and/or max")
		}
		if s.Fleet == nil {
			fail("fleet assertion requires a fleet section")
		}
	case AssertModel:
		if !modelFields[a.Field] {
			fail("unknown model field %q (known: max_rel_error, mean_rel_error)", a.Field)
		}
		if a.Min == nil && a.Max == nil {
			fail("model assertion needs min and/or max")
		}
		if s.Fleet == nil {
			fail("model assertion requires a fleet section (predictions are scored over its job fan-out)")
		}
	case AssertLatency:
		if a.Percentile == nil {
			fail("latency assertion needs percentile (e.g. 50, 95, 99)")
		} else if *a.Percentile <= 0 || *a.Percentile > 100 {
			fail("percentile %g out of range (0, 100]", *a.Percentile)
		}
		if a.Min == nil && a.Max == nil {
			fail("latency assertion needs min and/or max (seconds)")
		}
	default:
		fail("unknown assertion kind %q (known: %v)", a.Kind, slices.Sorted(maps.Keys(knownAssertKinds)))
	}
	return errs
}

// JobOutcome is one job's final state as seen by assertions.
type JobOutcome struct {
	// State is "done", "failed", or "canceled".
	State string
	// Err is the failure detail for failed jobs.
	Err string
	// Report is nil for jobs that produced none (e.g. killed with their
	// worker).
	Report *core.Report
	// Predicted is the cost model's predicted completion in seconds,
	// recorded when the job was enacted.
	Predicted float64
}

// FleetOutcome summarizes the worker fleet after the run (zero on the local
// backend).
type FleetOutcome struct {
	Restarts           int
	Replayed           int64
	EndpointsCordoned  int
	EndpointsUnhealthy int
}

// Outcome is the backend-independent view of one scenario run that
// assertions evaluate against: per-job final states and reports, the
// applied chaos timeline, dynamics aggregates, the qualified trace, and the
// fleet statistics.
type Outcome struct {
	Scenario *Scenario
	Jobs     []JobOutcome
	// Applied lists chaos events that fired before the run completed.
	Applied []AppliedEvent
	// Rescheduled counts unit returns caused by lost pilots, across jobs.
	Rescheduled int
	// PilotsLost counts pilots that ended FAILED, across jobs.
	PilotsLost int
	// Recorder holds the run's qualified trace.
	Recorder *trace.Recorder
	Fleet    FleetOutcome
}

// bound renders a min/max pair for failure messages.
func bound(min, max *float64) string {
	switch {
	case min != nil && max != nil:
		return fmt.Sprintf("in [%g, %g]", *min, *max)
	case min != nil:
		return fmt.Sprintf(">= %g", *min)
	case max != nil:
		return fmt.Sprintf("<= %g", *max)
	}
	return "unbounded"
}

func inBounds(v float64, min, max *float64) bool {
	if min != nil && v < *min {
		return false
	}
	if max != nil && v > *max {
		return false
	}
	return true
}

// check evaluates one assertion, returning nil when it holds.
func (a Assertion) check(o *Outcome) error {
	switch a.Kind {
	case AssertState:
		n := 0
		for _, j := range o.Jobs {
			if j.State == a.Want {
				n++
			}
		}
		if a.Count != nil {
			if n != *a.Count {
				return fmt.Errorf("state %s: want %d job(s), got %d of %d", a.Want, *a.Count, n, len(o.Jobs))
			}
			return nil
		}
		if n != len(o.Jobs) {
			for i, j := range o.Jobs {
				if j.State != a.Want {
					detail := ""
					if j.Err != "" {
						detail = " (" + j.Err + ")"
					}
					return fmt.Errorf("state %s: job %d is %s%s", a.Want, i, j.State, detail)
				}
			}
		}
		return nil
	case AssertReport:
		job := 0
		if a.Job != nil {
			job = *a.Job
		}
		if job >= len(o.Jobs) {
			return fmt.Errorf("report %s: job %d out of range (%d jobs)", a.Field, job, len(o.Jobs))
		}
		r := o.Jobs[job].Report
		if r == nil {
			return fmt.Errorf("report %s: job %d produced no report (state %s)", a.Field, job, o.Jobs[job].State)
		}
		v := reportFields[a.Field](o, r)
		if !inBounds(v, a.Min, a.Max) {
			return fmt.Errorf("report %s: want %s, got %g", a.Field, bound(a.Min, a.Max), v)
		}
		return nil
	case AssertTrace:
		n := 0
		for _, rec := range o.Recorder.Records() {
			if a.Entity != "" && rec.Entity != a.Entity {
				continue
			}
			if a.EntityPrefix != "" && !strings.HasPrefix(rec.Entity, a.EntityPrefix) {
				continue
			}
			if a.State != "" && rec.State != a.State {
				continue
			}
			if a.DetailContains != "" && !strings.Contains(rec.Detail, a.DetailContains) {
				continue
			}
			n++
		}
		min, max := 1, -1
		if a.MinCount != nil {
			min = *a.MinCount
		}
		if a.MaxCount != nil {
			max = *a.MaxCount
		}
		if n < min || (max >= 0 && n > max) {
			want := fmt.Sprintf(">= %d", min)
			if max >= 0 {
				want = fmt.Sprintf("in [%d, %d]", min, max)
			}
			return fmt.Errorf("trace %s: want count %s, got %d", a.tracePredicate(), want, n)
		}
		return nil
	case AssertThroughput:
		for i, j := range o.Jobs {
			if j.Report == nil {
				continue
			}
			if j.Report.Throughput < *a.Min {
				return fmt.Errorf("throughput: want >= %g units/hour, job %d got %.3g",
					*a.Min, i, j.Report.Throughput)
			}
		}
		return nil
	case AssertFleet:
		v := fleetFields[a.Field](o.Fleet)
		if !inBounds(v, a.Min, a.Max) {
			return fmt.Errorf("fleet %s: want %s, got %g", a.Field, bound(a.Min, a.Max), v)
		}
		return nil
	case AssertModel:
		var sum, worst float64
		n := 0
		for _, j := range o.Jobs {
			if j.State != "done" || j.Report == nil || j.Predicted <= 0 {
				continue
			}
			obs := j.Report.TTC.Seconds()
			if obs <= 0 {
				continue
			}
			rel := math.Abs(j.Predicted-obs) / obs
			sum += rel
			if rel > worst {
				worst = rel
			}
			n++
		}
		if n == 0 {
			return fmt.Errorf("model: no completed job carried a prediction")
		}
		field, v := a.Field, sum/float64(n)
		if field == "" {
			field = "mean_rel_error"
		}
		if field == "max_rel_error" {
			v = worst
		}
		if !inBounds(v, a.Min, a.Max) {
			return fmt.Errorf("model %s: want %s, got %.4f over %d job(s)", field, bound(a.Min, a.Max), v, n)
		}
		return nil
	case AssertLatency:
		prefix := a.EntityPrefix
		if prefix == "" {
			prefix = "unit."
		}
		// Latency of a unit: its first trace record to its DONE record.
		first := map[string]trace.Record{}
		done := map[string]trace.Record{}
		for _, rec := range o.Recorder.Records() {
			if !strings.HasPrefix(rec.Entity, prefix) {
				continue
			}
			if f, ok := first[rec.Entity]; !ok || rec.Time < f.Time {
				first[rec.Entity] = rec
			}
			if rec.State == "DONE" {
				if d, ok := done[rec.Entity]; !ok || rec.Time < d.Time {
					done[rec.Entity] = rec
				}
			}
		}
		var lats []float64
		for entity, d := range done {
			lats = append(lats, (d.Time - first[entity].Time).Seconds())
		}
		if len(lats) == 0 {
			return fmt.Errorf("latency: no %q entity reached DONE", prefix)
		}
		sort.Float64s(lats)
		v := percentile(lats, *a.Percentile)
		if !inBounds(v, a.Min, a.Max) {
			return fmt.Errorf("latency p%g: want %s seconds, got %.1f over %d unit(s)",
				*a.Percentile, bound(a.Min, a.Max), v, len(lats))
		}
		return nil
	}
	return fmt.Errorf("unknown assertion kind %q", a.Kind)
}

// percentile returns the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// tracePredicate renders the trace predicate for failure messages.
func (a Assertion) tracePredicate() string {
	var parts []string
	if a.Entity != "" {
		parts = append(parts, "entity="+a.Entity)
	}
	if a.EntityPrefix != "" {
		parts = append(parts, "entity_prefix="+a.EntityPrefix)
	}
	if a.State != "" {
		parts = append(parts, "state="+a.State)
	}
	if a.DetailContains != "" {
		parts = append(parts, "detail~"+a.DetailContains)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Assert evaluates every assertion of the outcome's scenario against the
// outcome, returning one joined error with a line per unmet assertion, each
// naming the assertion index and the observed-vs-expected values.
func (o *Outcome) Assert() error {
	var errs []error
	for i, a := range o.Scenario.Assertions {
		if err := a.check(o); err != nil {
			errs = append(errs, fmt.Errorf("scenario %s: assertion %d failed: %w", o.Scenario.Name, i, err))
		}
	}
	return errors.Join(errs...)
}
