package batch

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"aimes/internal/sim"
)

// SystemConfig parameterizes a full batch-system simulation.
type SystemConfig struct {
	// Name identifies the system in errors and traces.
	Name string
	// Nodes is the machine size.
	Nodes int
	// Policy is the scheduling policy; nil defaults to EASY backfilling.
	Policy Policy
	// FailureProb is the per-job probability of an injected node failure
	// killing the job at a uniform point of its runtime.
	FailureProb float64
}

// System is a discrete-event batch scheduler: jobs queue, a policy decides
// starts, nodes are held for the effective runtime, and walltime limits are
// enforced. Queue waits emerge from contention.
type System struct {
	eng    *sim.Sim
	cfg    SystemConfig
	rng    *rand.Rand
	policy Policy

	free    int
	queue   []*Job
	running []*Job
	offline bool

	// dispatch's scratch, reused from one dispatch to the next: the policy's
	// picks and the jobs they name.
	picks   []int
	started []*Job

	dispatching bool
	redispatch  bool

	// Utilization accounting.
	created      sim.Time
	lastEvent    sim.Time
	busyNodeSecs float64
}

// NewSystem creates a batch system on the given engine. rng drives failure
// injection; it may be nil when FailureProb is zero.
func NewSystem(eng *sim.Sim, cfg SystemConfig, rng *rand.Rand) *System {
	if cfg.Nodes <= 0 {
		panic(fmt.Sprintf("batch: system %q has %d nodes", cfg.Name, cfg.Nodes))
	}
	if cfg.Policy == nil {
		cfg.Policy = EASY{}
	}
	if cfg.FailureProb > 0 && rng == nil {
		panic("batch: failure injection requires an RNG")
	}
	return &System{
		eng:       eng,
		cfg:       cfg,
		rng:       rng,
		policy:    cfg.Policy,
		free:      cfg.Nodes,
		created:   eng.Now(),
		lastEvent: eng.Now(),
	}
}

var _ Queue = (*System)(nil)

// Name returns the configured system name.
func (s *System) Name() string { return s.cfg.Name }

// Nodes returns the machine size.
func (s *System) Nodes() int { return s.cfg.Nodes }

// Submit implements Queue.
func (s *System) Submit(j *Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.Nodes > s.cfg.Nodes {
		return fmt.Errorf("batch: job %q requests %d nodes but %s has %d",
			j.ID, j.Nodes, s.cfg.Name, s.cfg.Nodes)
	}
	if j.State != JobNew {
		return fmt.Errorf("batch: job %q resubmitted in state %v", j.ID, j.State)
	}
	j.State = JobQueued
	j.Submitted = s.eng.Now()
	j.queue = s
	s.queue = append(s.queue, j)
	s.dispatch()
	return nil
}

// Cancel implements Queue.
func (s *System) Cancel(j *Job) bool {
	if j.queue != Queue(s) {
		return false
	}
	switch j.State {
	case JobQueued:
		// A job picked by the dispatch in progress has left the queue
		// already; start skips it once it is canceled.
		s.queue = remove(s.queue, j)
		s.finish(j, JobCanceled)
		return true
	case JobRunning:
		s.eng.Cancel(&j.ev)
		s.release(j)
		s.finish(j, JobCanceled)
		s.dispatch()
		return true
	default:
		return false
	}
}

// Snapshot implements Queue.
func (s *System) Snapshot() Snapshot {
	now := s.eng.Now()
	busy := s.cfg.Nodes - s.free
	elapsed := now.Sub(s.created).Seconds()
	util := 0.0
	if elapsed > 0 {
		util = (s.busyNodeSecs + float64(busy)*now.Sub(s.lastEvent).Seconds()) /
			(float64(s.cfg.Nodes) * elapsed)
	}
	demand := 0.0
	for _, j := range s.queue {
		demand += float64(j.Nodes) * j.Walltime.Seconds()
	}
	return Snapshot{
		Time:               now,
		TotalNodes:         s.cfg.Nodes,
		FreeNodes:          s.free,
		RunningJobs:        len(s.running),
		QueuedJobs:         len(s.queue),
		QueuedNodeSeconds:  demand,
		Utilization:        util,
		InstantUtilization: float64(busy) / float64(s.cfg.Nodes),
	}
}

// dispatch runs the policy and starts selected jobs. It tolerates reentrant
// calls from job callbacks by deferring to the outermost invocation. An
// offline system queues submissions without starting anything.
func (s *System) dispatch() {
	if s.offline {
		return
	}
	if s.dispatching {
		s.redispatch = true
		return
	}
	s.dispatching = true
	defer func() { s.dispatching = false }()
	for {
		s.redispatch = false
		s.picks = s.policy.AppendPicks(s.picks[:0], s.queue, s.free, s.eng.Now(), s.running)
		if len(s.picks) > 0 {
			s.start(s.picks)
		}
		if !s.redispatch {
			return
		}
	}
}

// start launches the queue jobs at the given indices.
func (s *System) start(picks []int) {
	started := s.started[:0]
	for _, i := range picks {
		if i < 0 || i >= len(s.queue) || s.queue[i] == nil {
			panic(fmt.Sprintf("batch: policy %s returned bad selection %v", s.policy.Name(), picks))
		}
		started = append(started, s.queue[i])
		s.queue[i] = nil // picked
	}
	s.queue = slices.DeleteFunc(s.queue, func(j *Job) bool { return j == nil })
	s.started = started

	now := s.eng.Now()
	for _, j := range started {
		if j.State != JobQueued {
			continue // canceled by the Started callback of a job before it
		}
		if j.Nodes > s.free {
			panic(fmt.Sprintf("batch: policy %s overcommitted %s", s.policy.Name(), s.cfg.Name))
		}
		s.accrue()
		s.free -= j.Nodes
		j.State = JobRunning
		j.Started = now
		s.running = append(s.running, j)

		hold := j.effectiveRuntime()
		terminal := JobCompleted
		if j.Runtime > j.Walltime {
			terminal = JobKilled
		}
		if s.cfg.FailureProb > 0 && s.rng.Float64() < s.cfg.FailureProb {
			failAt := time.Duration(s.rng.Float64() * float64(hold))
			if failAt < hold {
				hold = failAt
				terminal = JobFailed
			}
		}
		j.endState = terminal
		j.ev.Init((*systemHold)(j))
		s.eng.Arm(&j.ev, hold)
		if j.Observer != nil {
			j.Observer.Started(j)
		}
	}
	clear(started)
}

// systemHold is a System's job as the handler of its end event.
type systemHold Job

func (h *systemHold) Fire() {
	j := (*Job)(h)
	s := j.queue.(*System)
	s.release(j)
	s.finish(j, j.endState)
	s.dispatch()
}

// release returns a running job's nodes to the pool.
func (s *System) release(j *Job) {
	s.accrue()
	s.free += j.Nodes
	s.running = remove(s.running, j)
}

// finish moves a job to a terminal state and tells its observer.
func (s *System) finish(j *Job, state JobState) {
	j.State = state
	j.Ended = s.eng.Now()
	if j.Observer != nil {
		j.Observer.Ended(j)
	}
}

// accrue folds elapsed busy node-seconds into the utilization accumulator.
func (s *System) accrue() {
	now := s.eng.Now()
	busy := s.cfg.Nodes - s.free
	s.busyNodeSecs += float64(busy) * now.Sub(s.lastEvent).Seconds()
	s.lastEvent = now
}
