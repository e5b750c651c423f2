package pilot

import (
	"iter"
	"math/rand"
	"slices"
	"strconv"
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
}

// DefaultConfig returns the calibrated middleware overheads.
func DefaultConfig() Config {
	return Config{
		AgentDispatchOverhead: 350 * time.Millisecond,
	}
}

// LinkResolver maps a resource name to its staging link. Sites satisfy this
// through the System constructor so the pilot layer stays decoupled from the
// site package.
type LinkResolver func(resource string) *netsim.Link

// System bundles the shared dependencies of pilot and unit managers: the
// engine, the SAGA session, staging links, instrumentation and RNG. The
// system, its managers and the recorder can live in one struct of their
// caller's (core.Execution), so each is initialized in place (Init).
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

// Init makes s the shared pilot-system context and returns it. rec receives
// every pilot and unit transition; it may be shared with the execution
// manager so the whole run lands in one trace. rng may be nil when
// UnitFailureProb is zero.
func (s *System) Init(eng *sim.Sim, session *saga.Session, links LinkResolver,
	rec trace.Sink, cfg Config, rng *rand.Rand) *System {
	if cfg.UnitFailureProb > 0 && rng == nil {
		panic("pilot: failure injection requires an RNG")
	}
	*s = System{eng: eng, session: session, links: links, rec: rec, cfg: cfg, rng: rng}
	return s
}

// SetNamespace scopes pilot IDs to a tenant: with namespace "s0-j3" pilots
// are named "pilot.<resource>.s0-j3-<n>" instead of "pilot.<resource>.<n>",
// so concurrent executions sharing one aggregate trace stay distinguishable
// — across jobs and across the environment's simulation shards. The
// namespace lands in the ID's final segment so parsers that strip it to
// recover the resource name keep working.
func (s *System) SetNamespace(ns string) { s.ns = ns }

// appendPilotID appends the namespaced trace identity of the seq'th pilot.
func (s *System) appendPilotID(dst []byte, resource string, seq int) []byte {
	id := append(append(append(dst, "pilot."...), resource...), '.')
	if s.ns != "" {
		id = append(append(id, s.ns...), '-')
	}
	return strconv.AppendInt(id, int64(seq), 10)
}

// Pilot is one resource placeholder. It carries its SAGA job and its agent,
// so a pilot is one object, and the pilots one PilotManager.Launch submits
// are one slab.
type Pilot struct {
	id    string
	desc  PilotDescription
	state PilotState
	job   saga.Job // submitted once the pilot leaves PilotNew
	sys   *System
	agent agent // started when the pilot becomes active

	submittedAt sim.Time
	activeAt    sim.Time
	endedAt     sim.Time

	// um, the unit manager the pilot serves, and then onState (OnState's
	// callbacks) see every transition. committed is the cores the units um
	// bound to the pilot hold.
	um        *UnitManager
	committed int
	onState   []func(*Pilot)
	// walltimeEv retires the pilot just before the resource would kill it.
	walltimeEv sim.Event
}

// walltime is a Pilot as the handler of its walltime event.
type walltime Pilot

func (w *walltime) Fire() { (*Pilot)(w).end(PilotDone, "walltime", "retired") }

// ID returns the pilot identifier, e.g. "pilot.stampede.0".
func (p *Pilot) ID() string { return p.id }

// Description returns the pilot description.
func (p *Pilot) Description() PilotDescription { return p.desc }

// State returns the current state.
func (p *Pilot) State() PilotState { return p.state }

// Resource returns the target resource name.
func (p *Pilot) Resource() string { return p.desc.Resource }

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
		p.sys.eng.Cancel(&p.walltimeEv)
	}
	if p.um != nil {
		p.um.pilotChanged(p)
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
	first  [4]*Pilot // pilots' first array
}

// Init makes pm a manager with no pilots on the shared system context and
// returns it.
func (pm *PilotManager) Init(sys *System) *PilotManager {
	*pm = PilotManager{sys: sys}
	pm.pilots = pm.first[:0]
	return pm
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
	if err := pm.Launch([]string{desc.Resource}, desc.Cores, desc.Walltime); err != nil {
		return nil, err
	}
	return pm.pilots[len(pm.pilots)-1], nil
}

// Launch describes and submits one pilot of the given size on each resource,
// in order, as Submit would one after another, and stops at the first that
// fails with its error. The pilots are carved from one slab, and their IDs,
// their NEW records' detail and their SAGA job IDs are cut from one string.
func (pm *PilotManager) Launch(resources []string, cores int, walltime time.Duration) error {
	desc := PilotDescription{Cores: cores, Walltime: walltime}
	// The names are known up to the first resource the session lacks, which
	// fails before it gets a pilot.
	var svcBuf [8]saga.Service
	svcs := svcBuf[:0]
	for _, r := range resources {
		svc, err := pm.sys.session.Service(r)
		if err != nil {
			break
		}
		svcs = append(svcs, svc)
	}
	var textBuf [512]byte
	var endBuf [16]int
	text := appendNewDetail(textBuf[:0], desc)
	ends := append(endBuf[:0], len(text))
	for i, svc := range svcs {
		ahead := 0 // the jobs this call submits to svc before this one
		for _, prev := range svcs[:i] {
			if prev == svc {
				ahead++
			}
		}
		text = pm.sys.appendPilotID(text, resources[i], pm.sys.seq+1+i)
		ends = append(ends, len(text))
		text = saga.AppendJobID(text, resources[i], svc.NextSeq()+ahead)
		ends = append(ends, len(text))
	}
	names := string(text)
	detail := names[:ends[0]]

	slab := make([]Pilot, len(svcs))
	for i, r := range resources {
		desc.Resource = r
		if err := desc.Validate(); err != nil {
			return err
		}
		if i == len(svcs) {
			_, err := pm.sys.session.Service(r)
			return err
		}
		id, jobID := names[ends[2*i]:ends[2*i+1]], names[ends[2*i+1]:ends[2*i+2]]
		if err := pm.launch(&slab[i], desc, svcs[i], id, detail, jobID); err != nil {
			return err
		}
	}
	return nil
}

// launch submits p, a zero Pilot, with its ID, NEW detail and SAGA job ID.
func (pm *PilotManager) launch(p *Pilot, desc PilotDescription, svc saga.Service, id, detail, jobID string) error {
	pm.sys.seq++
	p.id, p.desc, p.sys, p.submittedAt = id, desc, pm.sys, pm.sys.eng.Now()
	p.walltimeEv.Init((*walltime)(p))
	p.transition(PilotNew, detail)

	jd := saga.Description{
		Cores:    desc.Cores,
		Walltime: desc.Walltime,
		// The agent process runs until the resource kills it or the
		// application cancels the pilot.
		Runtime: desc.Walltime + time.Hour,
		ID:      jobID,
	}
	if err := svc.Submit(&p.job, jd, (*pilotJob)(p)); err != nil {
		p.transition(PilotFailed, err.Error())
		return err
	}
	p.transition(PilotLaunching, p.job.ID())
	pm.pilots = append(pm.pilots, p)
	return nil
}

// appendNewDetail appends a pilot's NEW record detail, e.g. "cores=8
// walltime=1h0m0s".
func appendNewDetail(dst []byte, d PilotDescription) []byte {
	b := strconv.AppendInt(append(dst, "cores="...), int64(d.Cores), 10)
	return append(append(b, " walltime="...), d.Walltime.String()...)
}

// pilotJob is a Pilot as the observer of its SAGA job.
type pilotJob Pilot

func (pj *pilotJob) JobState(_ *saga.Job, st saga.State) {
	p := (*Pilot)(pj)
	switch st {
	case saga.Pending:
		if p.state == PilotLaunching {
			p.transition(PilotPending, "")
		}
	case saga.Running:
		if p.state.Final() {
			return
		}
		p.activeAt = p.sys.eng.Now()
		p.agent.start(p)
		// Retire the pilot cleanly a moment before the resource's walltime
		// kill, as real agents do.
		margin := 5 * time.Second
		if p.desc.Walltime <= margin {
			margin = p.desc.Walltime / 2
		}
		p.sys.eng.Arm(&p.walltimeEv, p.desc.Walltime-margin)
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
			if p.job.Detail() == "walltime" {
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

// end finalizes a pilot the application (or the resource) is taking down:
// the agent shuts down with the given unit-return cause, the pilot
// transitions to its terminal state FIRST — so the SAGA callback triggered by
// the job cancellation finds it final and cannot double-fire a different
// terminal transition — and the underlying job is canceled last.
func (p *Pilot) end(state PilotState, detail, cause string) {
	if p.state.Final() {
		return
	}
	p.shutdownAgent(cause)
	p.transition(state, detail)
	if svc, err := p.sys.session.Service(p.desc.Resource); err == nil {
		svc.Cancel(&p.job)
	}
}

// Cancel terminates a pilot. Units on it are returned to their unit manager
// for rescheduling.
func (pm *PilotManager) Cancel(p *Pilot) {
	p.end(PilotCanceled, "user", "canceled")
}

// Preempt kills a pilot as the resource would: the agent dies immediately,
// units it held return to their unit manager for rescheduling on surviving
// pilots, and the pilot ends PilotFailed. This models allocation preemption
// (spot reclamation, admin kill) rather than an application-initiated Cancel.
func (pm *PilotManager) Preempt(p *Pilot, reason string) {
	p.end(PilotFailed, "preempted: "+reason, "lost")
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
	if p.agent.pilot != nil { // started
		p.agent.shutdown(cause)
	}
}
