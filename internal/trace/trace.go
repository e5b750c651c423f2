// Package trace implements the self-introspection layer of the middleware:
// every pilot and unit state transition is recorded with a virtual timestamp.
//
// The middleware writes to a Sink. A Recorder is the sink that keeps what it
// is given, for analysis after a run; an execution backend's sink forwards
// each record to its shard's Log — the one stored copy — and keeps nothing.
// The overlap-aware TTC decomposition of the paper's Figure 3 (TTC < Tw + Tx
// + Ts because the components overlap) is not computed from either:
// pilot.UnitManager accumulates the interval unions while the units change
// state, and the span algebra that replays them from a trace is the
// test-side reference in internal/core/report_test.go.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"

	"aimes/internal/sim"
)

// Record is one timestamped state transition of a named entity.
type Record struct {
	Time   sim.Time `json:"time"`
	Entity string   `json:"entity"` // e.g. "pilot.stampede", "unit.0042"
	State  string   `json:"state"`  // e.g. "PENDING_ACTIVE", "EXECUTING"
	Detail string   `json:"detail,omitempty"`
}

// Sink is where the middleware writes its state transitions, each entity as
// its producer keeps it.
type Sink interface {
	Emit(t sim.Time, entity Entity, state, detail string)
}

// Recorder accumulates state-transition records. It is not safe for
// concurrent use; in simulations all callbacks are serialized by the engine,
// and each simulation run owns its Recorder.
type Recorder struct {
	records []Record
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// RecorderOf returns a recorder holding recs, which it takes ownership of.
func RecorderOf(recs []Record) *Recorder { return &Recorder{records: recs} }

// Record appends a state transition at time t.
func (r *Recorder) Record(t sim.Time, entity, state, detail string) {
	r.records = append(r.records, Record{Time: t, Entity: entity, State: state, Detail: detail})
}

// Emit implements Sink.
func (r *Recorder) Emit(t sim.Time, entity Entity, state, detail string) {
	r.Record(t, entity.String(), state, detail)
}

// Len reports the number of records.
func (r *Recorder) Len() int { return len(r.records) }

// Records returns the records in insertion order. The returned slice is the
// recorder's backing store; callers must not modify it.
func (r *Recorder) Records() []Record { return r.records }

// ByState returns all records with the given state, in time order.
func (r *Recorder) ByState(state string) []Record {
	var out []Record
	for _, rec := range r.records {
		if rec.State == state {
			out = append(out, rec)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// First returns the earliest record for (entity, state) and whether one exists.
func (r *Recorder) First(entity, state string) (Record, bool) {
	found := false
	var best Record
	for _, rec := range r.records {
		if rec.Entity == entity && rec.State == state {
			if !found || rec.Time < best.Time {
				best = rec
				found = true
			}
		}
	}
	return best, found
}

// WriteJSON streams the records as a JSON array.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.records)
}

// WriteCSV streams the records as CSV with a header row. Fields are quoted
// as needed: a detail is free text (a cancel reason arrives from the client).
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "entity", "state", "detail"}); err != nil {
		return err
	}
	for _, rec := range r.records {
		if err := cw.Write([]string{
			strconv.FormatFloat(rec.Time.Seconds(), 'f', 3, 64), rec.Entity, rec.State, rec.Detail,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// StateMigrated is the execution-manager ("em") trace state recorded when a
// still-queued job is handed off to another simulation shard before
// enactment; the detail names the origin shard ("from s<k>"). It is the only
// record a job carries from before its enacting shard was decided.
const StateMigrated = "MIGRATED"

// QualifyEntity scopes a job's non-namespaced trace entities for an
// aggregate (multi-tenant) trace: with namespace "s0-j3", "em" becomes
// "em.s0-j3" and "unit.x" becomes "unit.s0-j3.x", so same-named units of
// different tenants never conflate. Pilot IDs already embed the namespace at
// the source (pilot.System.SetNamespace) and pass through unchanged.
func QualifyEntity(entity, ns string) string {
	const unit = "unit."
	switch {
	case entity == "em":
		return "em." + ns
	case strings.HasPrefix(entity, unit):
		return unit + ns + "." + entity[len(unit):]
	}
	return entity
}
