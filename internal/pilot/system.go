package pilot

import (
	"fmt"
	"iter"
	"math/rand"
	"slices"
	"time"

	"aimes/internal/netsim"
	"aimes/internal/saga"
	"aimes/internal/sim"
	"aimes/internal/trace"
)

// Config tunes the middleware overheads and failure injection.
type Config struct {
	// AgentDispatchOverhead is the serialized per-unit launch cost inside an
	// agent (scheduling, sandbox setup, exec fork). This is the Trp source
	// that steepens Tx beyond ~256 tasks in the paper's Figure 3.
	AgentDispatchOverhead time.Duration
	// UnitFailureProb is the per-execution-attempt probability that a unit
	// fails at a uniform point of its duration (restarted automatically).
	UnitFailureProb float64
	// DefaultMaxRestarts applies when a UnitDescription leaves MaxRestarts 0.
	DefaultMaxRestarts int
}

// DefaultConfig returns the calibrated middleware overheads.
func DefaultConfig() Config {
	return Config{
		AgentDispatchOverhead: 350 * time.Millisecond,
		DefaultMaxRestarts:    3,
	}
}

// LinkResolver maps a resource name to its staging link. Sites satisfy this
// through the System constructor so the pilot layer stays decoupled from the
// site package.
type LinkResolver func(resource string) *netsim.Link

// System bundles the shared dependencies of pilot and unit managers: the
// engine, the SAGA session, staging links, instrumentation and RNG.
type System struct {
	eng     *sim.Sim
	session *saga.Session
	links   LinkResolver
	rec     trace.Sink
	cfg     Config
	rng     *rand.Rand
	seq     int
	ns      string // pilot-ID namespace, e.g. "s0-j3" (empty outside multi-tenant runs)
}

// NewSystem creates the shared pilot-system context. rec receives every
// pilot and unit transition; it may be shared with the execution manager so
// the whole run lands in one trace. rng may be nil when UnitFailureProb is
// zero.
func NewSystem(eng *sim.Sim, session *saga.Session, links LinkResolver,
	rec trace.Sink, cfg Config, rng *rand.Rand) *System {
	if cfg.DefaultMaxRestarts <= 0 {
		cfg.DefaultMaxRestarts = 3
	}
	if cfg.UnitFailureProb > 0 && rng == nil {
		panic("pilot: failure injection requires an RNG")
	}
	return &System{eng: eng, session: session, links: links, rec: rec, cfg: cfg, rng: rng}
}

// SetNamespace scopes pilot IDs to a tenant: with namespace "s0-j3" pilots
// are named "pilot.<resource>.s0-j3-<n>" instead of "pilot.<resource>.<n>",
// so concurrent executions sharing one aggregate trace stay distinguishable
// — across jobs and across the environment's simulation shards. The
// namespace lands in the ID's final segment so parsers that strip it to
// recover the resource name keep working.
func (s *System) SetNamespace(ns string) { s.ns = ns }

// pilotID builds the namespaced trace identity of the seq'th pilot.
func (s *System) pilotID(resource string) string {
	if s.ns == "" {
		return fmt.Sprintf("pilot.%s.%d", resource, s.seq)
	}
	return fmt.Sprintf("pilot.%s.%s-%d", resource, s.ns, s.seq)
}

// Pilot is one resource placeholder.
type Pilot struct {
	id    string
	desc  PilotDescription
	state PilotState
	job   saga.Job
	sys   *System
	agent *agent

	submittedAt sim.Time
	activeAt    sim.Time
	endedAt     sim.Time

	// onState fires after every transition (set by the managers).
	onState []func(*Pilot)
	// walltimeEv retires the pilot just before the resource would kill it.
	walltimeEv *sim.Event
}

// ID returns the pilot identifier, e.g. "pilot.stampede.0".
func (p *Pilot) ID() string { return p.id }

// Description returns the pilot description.
func (p *Pilot) Description() PilotDescription { return p.desc }

// State returns the current state.
func (p *Pilot) State() PilotState { return p.state }

// Resource returns the target resource name.
func (p *Pilot) Resource() string { return p.desc.Resource }

// SubmittedAt returns the submission time.
func (p *Pilot) SubmittedAt() sim.Time { return p.submittedAt }

// ActiveAt returns when the pilot became active (zero if never).
func (p *Pilot) ActiveAt() sim.Time { return p.activeAt }

// EndedAt returns when the pilot reached a terminal state (zero if alive).
func (p *Pilot) EndedAt() sim.Time { return p.endedAt }

// Wait returns the queue wait (submission to activation); zero until active.
func (p *Pilot) Wait() time.Duration {
	if p.activeAt == 0 {
		return 0
	}
	return p.activeAt.Sub(p.submittedAt)
}

// OnState registers a callback fired after every subsequent state
// transition. The execution manager uses it to watch for lost pilots and
// replan (see core.AdaptiveConfig.ReplaceLostPilots).
func (p *Pilot) OnState(fn func(*Pilot)) {
	p.onState = append(p.onState, fn)
}

func (p *Pilot) transition(state PilotState, detail string) {
	p.state = state
	p.sys.rec.Record(p.sys.eng.Now(), p.id, state.String(), detail)
	if state.Final() {
		p.endedAt = p.sys.eng.Now()
		if p.walltimeEv != nil {
			p.sys.eng.Cancel(p.walltimeEv)
			p.walltimeEv = nil
		}
	}
	for _, cb := range p.onState {
		cb(p)
	}
}

// PilotManager submits and cancels pilots through the SAGA session,
// mirroring RADICAL-Pilot's PilotManager.
type PilotManager struct {
	sys    *System
	pilots []*Pilot
}

// NewPilotManager returns a manager on the shared system context.
func NewPilotManager(sys *System) *PilotManager {
	return &PilotManager{sys: sys}
}

// All iterates over the pilots in submission order without copying them; the
// caller must not submit while it does.
func (pm *PilotManager) All() iter.Seq[*Pilot] { return slices.Values(pm.pilots) }

// Pilots returns all pilots in submission order.
func (pm *PilotManager) Pilots() []*Pilot {
	cp := make([]*Pilot, len(pm.pilots))
	copy(cp, pm.pilots)
	return cp
}

// Submit describes and launches a pilot. The returned pilot transitions
// asynchronously; observe it via UnitManager callbacks or the trace.
func (pm *PilotManager) Submit(desc PilotDescription) (*Pilot, error) {
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	svc, err := pm.sys.session.Service(desc.Resource)
	if err != nil {
		return nil, err
	}
	pm.sys.seq++
	p := &Pilot{
		id:          pm.sys.pilotID(desc.Resource),
		desc:        desc,
		sys:         pm.sys,
		submittedAt: pm.sys.eng.Now(),
	}
	p.transition(PilotNew, fmt.Sprintf("cores=%d walltime=%s", desc.Cores, desc.Walltime))

	jd := saga.Description{
		Executable: "aimes-agent",
		Cores:      desc.Cores,
		Walltime:   desc.Walltime,
		// The agent process runs until the resource kills it or the
		// application cancels the pilot.
		Runtime: desc.Walltime + time.Hour,
		Project: desc.Project,
	}
	job, err := svc.Submit(jd, func(j saga.Job, st saga.State) {
		pm.onJobState(p, j, st)
	})
	if err != nil {
		p.transition(PilotFailed, err.Error())
		return nil, err
	}
	p.job = job
	p.transition(PilotLaunching, job.ID())
	pm.pilots = append(pm.pilots, p)
	return p, nil
}

func (pm *PilotManager) onJobState(p *Pilot, _ saga.Job, st saga.State) {
	switch st {
	case saga.Pending:
		if p.state == PilotLaunching {
			p.transition(PilotPending, "")
		}
	case saga.Running:
		if p.state.Final() {
			return
		}
		p.activeAt = pm.sys.eng.Now()
		p.agent = newAgent(pm.sys, p)
		// Retire the pilot cleanly a moment before the resource's walltime
		// kill, as real agents do.
		margin := 5 * time.Second
		if p.desc.Walltime <= margin {
			margin = p.desc.Walltime / 2
		}
		p.walltimeEv = pm.sys.eng.Schedule(p.desc.Walltime-margin, func() {
			p.walltimeEv = nil
			pm.retire(p, "walltime")
		})
		p.transition(PilotActive, "")
	case saga.Done:
		if !p.state.Final() {
			p.shutdownAgent("retired")
			p.transition(PilotDone, "")
		}
	case saga.Canceled:
		if !p.state.Final() {
			p.shutdownAgent("canceled")
			p.transition(PilotCanceled, "")
		}
	case saga.Failed:
		if !p.state.Final() {
			if p.job != nil && p.job.Detail() == "walltime" {
				// The resource killed the agent at walltime: a normal pilot
				// retirement, not an application failure.
				p.shutdownAgent("retired")
				p.transition(PilotDone, "walltime")
			} else {
				p.shutdownAgent("lost")
				p.transition(PilotFailed, p.job.Detail())
			}
		}
	}
}

// endPilot finalizes a pilot the application (or the resource) is taking
// down: the agent shuts down with the given unit-return cause, the pilot
// transitions to its terminal state FIRST — so the SAGA callback triggered by
// the job cancellation finds it final and cannot double-fire a different
// terminal transition — and the underlying job is canceled last.
func (pm *PilotManager) endPilot(p *Pilot, state PilotState, detail, cause string) {
	if p.state.Final() {
		return
	}
	p.shutdownAgent(cause)
	p.transition(state, detail)
	if p.job != nil {
		if svc, err := pm.sys.session.Service(p.desc.Resource); err == nil {
			svc.Cancel(p.job)
		}
	}
}

// retire cancels the pilot job because the agent is shutting down cleanly.
func (pm *PilotManager) retire(p *Pilot, reason string) {
	pm.endPilot(p, PilotDone, reason, "retired")
}

// Cancel terminates a pilot. Units on it are returned to their unit manager
// for rescheduling.
func (pm *PilotManager) Cancel(p *Pilot) {
	pm.endPilot(p, PilotCanceled, "user", "canceled")
}

// Preempt kills a pilot as the resource would: the agent dies immediately,
// units it held return to their unit manager for rescheduling on surviving
// pilots, and the pilot ends PilotFailed. This models allocation preemption
// (spot reclamation, admin kill) rather than an application-initiated Cancel.
func (pm *PilotManager) Preempt(p *Pilot, reason string) {
	pm.endPilot(p, PilotFailed, "preempted: "+reason, "lost")
}

// CancelAll terminates every non-final pilot — the paper's "all pilots are
// canceled when all tasks have executed so as not to waste resources".
func (pm *PilotManager) CancelAll() {
	for _, p := range pm.pilots {
		pm.Cancel(p)
	}
}

// shutdownAgent stops the pilot's agent; cause ("retired", "canceled",
// "lost") tags the returned units' trace records so consumers can tell
// routine retirements from pilots lost to failures and preemption.
func (p *Pilot) shutdownAgent(cause string) {
	if p.agent != nil {
		p.agent.shutdown(cause)
	}
}
