package batch

import (
	"fmt"
	"math/rand"
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
	// HistoryLen bounds the wait-history ring buffer (default 512).
	HistoryLen int
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

	dispatching bool
	redispatch  bool

	// Utilization accounting.
	created      sim.Time
	lastEvent    sim.Time
	busyNodeSecs float64
	startedJobs  int
	finishedJobs int
	waitHistory  []float64
	historyLen   int
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
	if cfg.HistoryLen <= 0 {
		cfg.HistoryLen = 512
	}
	if cfg.FailureProb > 0 && rng == nil {
		panic("batch: failure injection requires an RNG")
	}
	return &System{
		eng:        eng,
		cfg:        cfg,
		rng:        rng,
		policy:     cfg.Policy,
		free:       cfg.Nodes,
		created:    eng.Now(),
		lastEvent:  eng.Now(),
		historyLen: cfg.HistoryLen,
	}
}

var _ Queue = (*System)(nil)

// Name returns the configured system name.
func (s *System) Name() string { return s.cfg.Name }

// Nodes returns the machine size.
func (s *System) Nodes() int { return s.cfg.Nodes }

// Policy returns the active scheduling policy.
func (s *System) Policy() Policy { return s.policy }

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
	s.queue = append(s.queue, j)
	s.dispatch()
	return nil
}

// Cancel implements Queue.
func (s *System) Cancel(j *Job) bool {
	switch j.State {
	case JobQueued:
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.finish(j, JobCanceled)
		return true
	case JobRunning:
		if j.endEvent != nil {
			s.eng.Cancel(j.endEvent)
			j.endEvent = nil
		}
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

// WaitHistory implements Queue.
func (s *System) WaitHistory() []float64 {
	cp := make([]float64, len(s.waitHistory))
	copy(cp, s.waitHistory)
	return cp
}

// StartedJobs reports how many jobs have started so far.
func (s *System) StartedJobs() int { return s.startedJobs }

// FinishedJobs reports how many jobs reached a terminal state.
func (s *System) FinishedJobs() int { return s.finishedJobs }

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
		picks := s.policy.Select(s.queue, s.free, s.eng.Now(), s.running)
		if len(picks) > 0 {
			s.start(picks)
		}
		if !s.redispatch {
			return
		}
	}
}

// start launches the queue jobs at the given indices.
func (s *System) start(picks []int) {
	started := make([]*Job, 0, len(picks))
	picked := make(map[int]bool, len(picks))
	for _, i := range picks {
		if i < 0 || i >= len(s.queue) || picked[i] {
			panic(fmt.Sprintf("batch: policy %s returned bad selection %v", s.policy.Name(), picks))
		}
		picked[i] = true
		started = append(started, s.queue[i])
	}
	remaining := s.queue[:0]
	for i, j := range s.queue {
		if !picked[i] {
			remaining = append(remaining, j)
		}
	}
	s.queue = remaining

	now := s.eng.Now()
	for _, j := range started {
		if j.Nodes > s.free {
			panic(fmt.Sprintf("batch: policy %s overcommitted %s", s.policy.Name(), s.cfg.Name))
		}
		s.accrue()
		s.free -= j.Nodes
		j.State = JobRunning
		j.Started = now
		s.running = append(s.running, j)
		s.startedJobs++
		s.recordWait(j.Started.Sub(j.Submitted).Seconds())

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
		job, reason := j, terminal
		j.endEvent = s.eng.Schedule(hold, func() {
			job.endEvent = nil
			s.release(job)
			s.finish(job, reason)
			s.dispatch()
		})
		if j.OnStart != nil {
			j.OnStart(j)
		}
	}
}

// release returns a running job's nodes to the pool.
func (s *System) release(j *Job) {
	s.accrue()
	s.free += j.Nodes
	for i, r := range s.running {
		if r == j {
			s.running = append(s.running[:i], s.running[i+1:]...)
			return
		}
	}
}

// finish moves a job to a terminal state and fires OnEnd.
func (s *System) finish(j *Job, state JobState) {
	j.State = state
	j.Ended = s.eng.Now()
	s.finishedJobs++
	if j.OnEnd != nil {
		j.OnEnd(j)
	}
}

// accrue folds elapsed busy node-seconds into the utilization accumulator.
func (s *System) accrue() {
	now := s.eng.Now()
	busy := s.cfg.Nodes - s.free
	s.busyNodeSecs += float64(busy) * now.Sub(s.lastEvent).Seconds()
	s.lastEvent = now
}

func (s *System) recordWait(seconds float64) {
	s.waitHistory = append(s.waitHistory, seconds)
	if len(s.waitHistory) > s.historyLen {
		s.waitHistory = s.waitHistory[len(s.waitHistory)-s.historyLen:]
	}
}
