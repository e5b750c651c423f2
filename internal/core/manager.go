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

// ExecOptions scopes one execution inside a shared environment.
type ExecOptions struct {
	// Recorder receives this execution's trace and is required. A backend
	// passes a sink that forwards each record to its shard's log and keeps
	// none: no report needs a trace to replay (see buildReport).
	Recorder trace.Sink
	// Namespace scopes pilot IDs, e.g. "s0-j3" → "pilot.stampede.s0-j3-1".
	Namespace string
	// Adaptive, when non-nil, arms runtime strategy adaptation as the last
	// step of Enact. Prepare validates it.
	Adaptive *AdaptiveConfig
}

// Execution is one workload's enactment handle. It is created in a prepared
// state (Prepare) that holds no engine state at all, and crosses into the
// enacted state exactly once (Enact) when pilots are submitted and events
// scheduled. Only work on the prepared side of that line may still be handed
// to a different shard's manager.
type Execution struct {
	m           *Manager
	rec         trace.Sink
	ns          string
	adaptive    *AdaptiveConfig
	workload    *skeleton.Workload
	strategy    Strategy
	enacted     bool
	pm          *pilot.PilotManager
	um          *pilot.UnitManager
	started     sim.Time
	ended       sim.Time
	done        bool
	canceled    bool
	extraPilots int
	onDone      []func(*Report)
	report      *Report

	// Lost-pilot replanning (AdaptiveConfig.ReplaceLostPilots).
	watchForLoss  bool
	replaceBudget int
}

// Done reports whether the execution has completed.
func (e *Execution) Done() bool { return e.done }

// Report returns the final report, or nil while running.
func (e *Execution) Report() *Report { return e.report }

// OnComplete registers a callback fired once with the final report.
func (e *Execution) OnComplete(fn func(*Report)) {
	if e.done {
		fn(e.report)
		return
	}
	e.onDone = append(e.onDone, fn)
}

// Pilots returns the execution's pilots (initial and adaptation-added) in
// submission order; nil before enactment.
func (e *Execution) Pilots() []*pilot.Pilot {
	if e.pm == nil {
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
	e.rec.Record(e.m.eng.Now(), "em", "CANCELED", reason)
	if !e.enacted {
		e.ended = e.m.eng.Now()
		e.done = true
		e.rec.Record(e.ended, "em", "DONE", "")
		e.report = CanceledReport(e.workload)
		e.report.Strategy = e.strategy
		for _, fn := range e.onDone {
			fn(e.report)
		}
		e.onDone = nil
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

// Prepare validates a workload, a strategy and the execution's options and
// returns a prepared Execution without enacting it: no pilots are submitted,
// nothing is scheduled on the engine, no randomness is drawn and nothing is
// recorded, so a prepared execution may still be discarded — and the
// workload re-prepared against a different manager — at zero cost. That
// queued-vs-enacted boundary is what makes cross-shard job migration safe:
// only work that never touched an engine is handed off.
func (m *Manager) Prepare(w *skeleton.Workload, s Strategy, opts ExecOptions) (*Execution, error) {
	if opts.Adaptive != nil {
		if err := opts.Adaptive.Validate(); err != nil {
			return nil, err
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if w.TotalTasks() == 0 {
		return nil, fmt.Errorf("core: empty workload")
	}
	if opts.Recorder == nil {
		return nil, fmt.Errorf("core: execution without a trace sink (ExecOptions.Recorder)")
	}
	return &Execution{m: m, rec: opts.Recorder, ns: opts.Namespace, adaptive: opts.Adaptive, workload: w, strategy: s}, nil
}

// Enact crosses a prepared execution into the enacted state: pilots are
// described and submitted in randomized order (Figure 1 steps 4–5), units are
// scheduled onto them (step 6), adaptation is armed when the options ask for
// it, and from here on the execution is bound to its manager's engine:
// outputs are staged back and all pilots canceled as the engine is stepped,
// and completion is observed through Done or OnComplete. Enacting twice is an
// error.
func (e *Execution) Enact() error {
	if e.enacted {
		return fmt.Errorf("core: execution already enacted")
	}
	m, s := e.m, e.strategy
	e.enacted = true
	e.started = m.eng.Now()
	e.rec.Record(m.eng.Now(), "em", "ENACTING", s.String())

	sys := pilot.NewSystem(m.eng, m.session, m.links, e.rec, m.cfg, m.rng)
	if e.ns != "" {
		sys.SetNamespace(e.ns)
	}
	e.pm = pilot.NewPilotManager(sys)
	e.um = pilot.NewUnitManager(sys, s.Scheduler.build())

	// Randomize pilot submission order to decorrelate from resource order,
	// as the paper's experiments did.
	order := make([]string, len(s.Resources))
	copy(order, s.Resources)
	if m.rng != nil {
		m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for _, resource := range order {
		p, err := e.pm.Submit(pilot.PilotDescription{
			Resource: resource,
			Cores:    s.PilotCores,
			Walltime: s.PilotWalltime,
		})
		if err != nil {
			e.pm.CancelAll()
			return fmt.Errorf("core: submitting pilot to %s: %w", resource, err)
		}
		e.um.AddPilot(p)
	}

	descs := unitDescriptions(e.workload)
	e.um.OnCompletion(func() { e.finish() })
	if err := e.um.Submit(descs); err != nil {
		e.pm.CancelAll()
		return err
	}
	if e.adaptive != nil {
		e.adapt(*e.adaptive)
	}
	return nil
}

// finish cancels pilots, assembles the report and fires callbacks.
func (e *Execution) finish() {
	e.pm.CancelAll()
	e.ended = e.m.eng.Now()
	e.done = true
	e.rec.Record(e.ended, "em", "DONE", "")
	e.report = buildReport(e)
	for _, fn := range e.onDone {
		fn(e.report)
	}
	e.onDone = nil
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

// unitDescriptions converts skeleton tasks to compute-unit descriptions.
func unitDescriptions(w *skeleton.Workload) []pilot.UnitDescription {
	descs := make([]pilot.UnitDescription, 0, len(w.Tasks))
	files := 0
	for _, t := range w.Tasks {
		files += len(t.Inputs)
	}
	// Every unit's inputs are carved from one slab; the capped slices keep
	// an append to one unit's list out of the next unit's.
	slab := make([]pilot.InputFile, 0, files)
	for _, t := range w.Tasks {
		first := len(slab)
		for _, f := range t.Inputs {
			slab = append(slab, pilot.InputFile{Bytes: f.Bytes, Producer: f.Producer})
		}
		inputs := slab[first:len(slab):len(slab)]
		descs = append(descs, pilot.UnitDescription{
			Name:        t.ID,
			Cores:       t.Cores,
			Duration:    t.Duration,
			Inputs:      inputs,
			OutputBytes: t.OutputBytes(),
			Deps:        t.Deps,
		})
	}
	return descs
}

// FeedbackWaits replays a report's observed pilot queue waits into the
// bundle's predictive history, so later derivations see fresher forecasts —
// the feedback loop staged execution (and any long-lived environment) uses.
func (m *Manager) FeedbackWaits(r *Report) {
	for pilotID, wait := range r.PilotWaits {
		if res := m.bundle.Resource(resourceOf(pilotID)); res != nil {
			res.ObserveWait(wait.Seconds())
		}
	}
}
