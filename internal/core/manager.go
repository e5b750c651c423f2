package core

import (
	"fmt"
	"math/rand"
	"time"

	"aimes/internal/bundle"
	"aimes/internal/pilot"
	"aimes/internal/saga"
	"aimes/internal/sim"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// Manager is the Execution Manager: it gathers application information via
// the skeleton API and resource information via the bundle API, derives an
// execution strategy, and enacts it through the pilot layer (§III-D,
// Figure 1 steps 1–6). One manager serves many executions, sequentially or
// concurrently on a shared engine, and there is one way to run one: Prepare,
// then Enact, then whoever owns the engine steps it until the execution is
// Done. Each execution gets its own pilot system, trace sink and pilot-ID
// namespace (ExecOptions), so tenants sharing the testbed stay observably
// separate.
type Manager struct {
	eng     *sim.Sim
	bundle  *bundle.Bundle
	session *saga.Session
	links   pilot.LinkResolver
	cfg     pilot.Config
	rng     *rand.Rand
}

// NewManager wires an execution manager.
func NewManager(eng *sim.Sim, b *bundle.Bundle, session *saga.Session,
	links pilot.LinkResolver, cfg pilot.Config, rng *rand.Rand) *Manager {
	return &Manager{eng: eng, bundle: b, session: session, links: links, cfg: cfg, rng: rng}
}

// Sink receives what executions report, each under the key its ExecOptions
// gave it: every trace record as it is written, and the final report once.
// A backend passes one Sink to all of its executions.
type Sink interface {
	JobTrace(key int, ns string, rec trace.Record)
	JobDone(key int, report *Report)
}

// A LogSink is a Sink that stores every record in a trace log, one stream
// per job: an execution asks it for its job's stream once, and appends its
// records there itself, each entity coded against the names the job holds.
type LogSink interface {
	Sink
	// JobStream returns the log and the stream of job key, or a nil stream
	// when the sink keeps no job of that key (whose records it would drop).
	JobStream(key int) (*trace.Log, *trace.Stream)
}

// ExecOptions scopes one execution inside a shared environment.
type ExecOptions struct {
	// Sink receives this execution's trace and its report, and is required.
	// A backend's forwards each record to its shard's log and keeps none:
	// no report needs a trace to replay (see buildReport).
	Sink Sink
	// Key is the execution's name to Sink.
	Key int
	// Namespace scopes pilot IDs, e.g. "s0-j3" → "pilot.stampede.s0-j3-1".
	Namespace string
}

// jobTrace is an execution's trace.Sink: each record goes to the job's
// stream when the execution's Sink is a LogSink that keeps the job, and to
// the Sink under the job's key and namespace otherwise.
type jobTrace struct {
	sink   Sink
	key    int
	ns     string
	log    *trace.Log
	stream *trace.Stream
}

func (j *jobTrace) Emit(t sim.Time, entity trace.Entity, state, detail string) {
	if j.stream != nil {
		j.log.AppendEntity(j.stream, j.ns, t, entity, state, detail)
		return
	}
	j.sink.JobTrace(j.key, j.ns, trace.Record{Time: t, Entity: entity.String(), State: state, Detail: detail})
}

// Execution is one workload's enactment handle. It is created in a prepared
// state (Prepare) that holds no engine state at all, and crosses into the
// enacted state exactly once (Enact) when its strategy is resolved, pilots are
// submitted and events scheduled. Only work on the prepared side of that line
// may still be handed to a different shard's manager.
//
// An enacted job's engine state is the execution itself, its pilots' slab,
// its units' slab and the strings its pilots and units are named by: the
// pilot system, the managers and the trace sink are fields here, not
// objects of their own. Nothing that outlives the job — the shard's log, the
// report, a site's queue — may point into it.
type Execution struct {
	m        *Manager
	trace    jobTrace
	adaptive *AdaptiveConfig
	workload *skeleton.Workload
	names    skeleton.Index // the workload's tasks, checked; its unit manager reads it
	// strategy is the pre-derived strategy, or the one Enact derives from
	// config when derive is set.
	strategy    Strategy
	config      StrategyConfig
	derive      bool
	enacted     bool
	started     sim.Time
	ended       sim.Time
	done        bool
	canceled    bool
	extraPilots int
	report      *Report

	// Lost-pilot replanning (AdaptiveConfig.ReplaceLostPilots).
	watchForLoss  bool
	replaceBudget int

	// Set up by Enact.
	sys pilot.System
	pm  pilot.PilotManager
	um  pilot.UnitManager
}

// Trace is the sink the execution, its pilots and its units record to.
func (e *Execution) Trace() trace.Sink { return &e.trace }

// Pilots returns the execution's pilots (initial and adaptation-added) in
// submission order; nil before enactment.
func (e *Execution) Pilots() []*pilot.Pilot {
	if !e.enacted {
		return nil
	}
	return e.pm.Pilots()
}

// PreemptPilot preempts one non-final pilot on the named resource, as when
// the resource manager reclaims the allocation mid-run. Units the pilot held
// return to the unit manager for rescheduling on surviving pilots (or a
// replacement, with ReplaceLostPilots). It reports whether a pilot was
// preempted.
func (e *Execution) PreemptPilot(resource, reason string) bool {
	for _, p := range e.Pilots() {
		if p.Resource() == resource && !p.State().Final() {
			e.pm.Preempt(p, reason)
			return true
		}
	}
	return false
}

// Cancel aborts the execution: every non-final unit is canceled, all pilots
// are torn down, and the execution completes immediately with a report that
// accounts the canceled units. Canceling a prepared, never-enacted execution
// completes it directly with every unit accounted as canceled. Canceling a
// finished execution is a no-op.
func (e *Execution) Cancel(reason string) {
	if e.done {
		return
	}
	e.canceled = true
	e.trace.Emit(e.m.eng.Now(), trace.EM, "CANCELED", reason)
	if !e.enacted {
		e.ended = e.m.eng.Now()
		e.done = true
		e.trace.Emit(e.ended, trace.EM, "DONE", "")
		e.report = CanceledReport(e.workload)
		e.report.Strategy = e.strategy
		e.trace.sink.JobDone(e.trace.key, e.report)
		return
	}
	// Canceling the last unit fires the unit manager's completion callback,
	// which runs finish: pilot teardown and report assembly happen there.
	e.um.CancelAll()
}

// CanceledReport builds the report of a workload canceled before enactment:
// no time passed, nothing activated, and every unit accounts as canceled.
func CanceledReport(w *skeleton.Workload) *Report {
	return &Report{
		UnitsCanceled:   w.TotalTasks(),
		PilotWaits:      make(map[string]time.Duration),
		UnitsByResource: make(map[string]int),
	}
}

// Prepare validates a job descriptor — its adaptation policy, its pre-derived
// strategy if it has one, and every task of its workload (skeleton.Index) —
// and the execution's options, and returns a prepared Execution without
// enacting it: no strategy is derived, no pilots are submitted, nothing is
// scheduled on the engine, no randomness is drawn and nothing is recorded, so
// a job Prepare rejects leaves the manager as it found it, and a prepared
// execution may still be discarded — and the workload re-prepared against a
// different manager — at zero cost. That queued-vs-enacted boundary is what
// makes cross-shard job migration safe: only work that never touched an
// engine is handed off. The execution keeps the descriptor's workload, which
// the caller must not modify until the execution is done.
func (m *Manager) Prepare(d *Descriptor, opts ExecOptions) (*Execution, error) {
	if d.Adaptive != nil {
		if err := d.Adaptive.Validate(); err != nil {
			return nil, err
		}
	}
	if d.Strategy != nil {
		if err := d.Strategy.Validate(); err != nil {
			return nil, err
		}
	}
	w := d.Workload
	if w.TotalTasks() == 0 {
		return nil, fmt.Errorf("core: empty workload")
	}
	if opts.Sink == nil {
		return nil, fmt.Errorf("core: execution without a sink (ExecOptions.Sink)")
	}
	e := &Execution{m: m, trace: jobTrace{sink: opts.Sink, key: opts.Key, ns: opts.Namespace},
		adaptive: d.Adaptive, workload: w, config: d.Config, derive: d.Strategy == nil}
	if ls, ok := opts.Sink.(LogSink); ok {
		e.trace.log, e.trace.stream = ls.JobStream(opts.Key)
	}
	if err := e.names.Add(w.Tasks); err != nil {
		return nil, err
	}
	if !e.derive {
		e.strategy = *d.Strategy
	}
	return e, nil
}

// Strategy returns the strategy the execution enacts: the pre-derived one,
// or once Enact has derived it, the derived one.
func (e *Execution) Strategy() Strategy { return e.strategy }

// Enact crosses a prepared execution into the enacted state: the strategy is
// derived against the manager's bundle and randomness unless it came
// pre-derived, pilots are described and submitted in randomized order
// (Figure 1 steps 4–5), units are scheduled onto them (step 6), adaptation is
// armed when the descriptor asks for it, and from here on the execution is
// bound to its manager's engine: outputs are staged back and all pilots
// canceled as the engine is stepped, and the report goes to the sink's
// JobDone. Enacting twice is an error.
func (e *Execution) Enact() error {
	if e.enacted {
		return fmt.Errorf("core: execution already enacted")
	}
	m := e.m
	if e.derive {
		s, err := m.Derive(e.workload, e.config)
		if err == nil {
			err = s.Validate()
		}
		if err != nil {
			return err
		}
		e.strategy, e.derive = s, false
	}
	s := e.strategy
	e.enacted = true
	e.started = m.eng.Now()
	e.trace.Emit(m.eng.Now(), trace.EM, "ENACTING", s.String())

	e.sys.Init(m.eng, m.session, m.links, &e.trace, m.cfg, m.rng)
	if e.trace.ns != "" {
		e.sys.SetNamespace(e.trace.ns)
	}
	e.pm.Init(&e.sys)
	e.um.Init(&e.sys, s.Scheduler.build())

	// Randomize pilot submission order to decorrelate from resource order,
	// as the paper's experiments did.
	var buf [8]string
	order := append(buf[:0], s.Resources...)
	if m.rng != nil {
		m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	if err := e.pm.Launch(order, s.PilotCores, s.PilotWalltime); err != nil {
		// The pilots launched before the one that failed stay with pm.
		failed := order[len(e.pm.Pilots())]
		e.pm.CancelAll()
		return fmt.Errorf("core: submitting pilot to %s: %w", failed, err)
	}
	for p := range e.pm.All() {
		e.um.AddPilot(p)
	}

	e.um.OnCompletion((*finishing)(e))
	if err := e.um.Submit(e.workload.Tasks, &e.names); err != nil {
		e.pm.CancelAll()
		return err
	}
	if e.adaptive != nil {
		e.adapt(*e.adaptive)
	}
	return nil
}

// finishing is an Execution as the handler of its units' completion.
type finishing Execution

func (f *finishing) Fire() { (*Execution)(f).finish() }

// finish cancels pilots, assembles the report, feeds each activated pilot's
// queue wait into the bundle's predictive history in submission order, and
// hands the report to the sink. The execution has made its last decision by
// then, so the waits it observed reach only the derivations of later jobs.
func (e *Execution) finish() {
	e.pm.CancelAll()
	e.ended = e.m.eng.Now()
	e.done = true
	e.trace.Emit(e.ended, trace.EM, "DONE", "")
	e.report = buildReport(e)
	// The engine may still hold an event of the job's, its units' place
	// among them, which keeps the execution until it fires: not the
	// workload, whose submitter may be long gone.
	e.workload = nil
	for p := range e.pm.All() {
		if res := e.m.bundle.Resource(p.Resource()); res != nil && p.ActiveAt() > 0 {
			res.ObserveWait(p.Wait().Seconds())
		}
	}
	e.trace.sink.JobDone(e.trace.key, e.report)
}

// IncompleteError describes an execution stuck after the engine drained:
// which pilot and unit states it wedged in, the context needed to diagnose
// a run that can no longer make progress.
func (e *Execution) IncompleteError() error {
	if !e.enacted {
		return fmt.Errorf("core: engine drained with the workload still queued, never enacted")
	}
	pilots := make(map[string]int)
	for p := range e.pm.All() {
		pilots[p.State().String()]++
	}
	units := make(map[string]int)
	for u := range e.um.All() {
		units[u.State().String()]++
	}
	return fmt.Errorf("core: engine drained but workload incomplete (pilots %v, units %v)", pilots, units)
}
