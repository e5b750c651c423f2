package batch

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"aimes/internal/sim"
	"aimes/internal/stats"
)

// WaitModel describes the stochastic queue-wait model of one resource. The
// calibration follows the paper's observations: waits on production machines
// are heavy-tailed (lognormal), vary per resource (heterogeneous medians and
// tail weights), and grow with the fraction of the machine a job requests.
type WaitModel struct {
	// MedianWait is the typical wait of a small job.
	MedianWait time.Duration
	// Sigma is the lognormal scale (tail weight); production traces sit
	// around 0.8–1.6.
	Sigma float64
	// WidthFactor scales the wait with the requested machine fraction: the
	// effective wait is sample × (1 + WidthFactor × nodes/totalNodes).
	WidthFactor float64
	// MinWait is a floor modeling scheduler cycle latency.
	MinWait time.Duration
	// MaxWait truncates the tail (e.g. queue limits, admin intervention).
	MaxWait time.Duration
}

// Validate reports a descriptive error for malformed models.
func (m WaitModel) Validate() error {
	if m.MedianWait <= 0 {
		return fmt.Errorf("batch: wait model median %v must be positive", m.MedianWait)
	}
	if m.Sigma < 0 {
		return fmt.Errorf("batch: wait model sigma %g must be non-negative", m.Sigma)
	}
	if m.MaxWait > 0 && m.MaxWait < m.MinWait {
		return fmt.Errorf("batch: wait model max %v below min %v", m.MaxWait, m.MinWait)
	}
	return nil
}

// SampleWait draws a queue wait for a job of the given width on a machine of
// totalNodes.
func (m WaitModel) SampleWait(r *rand.Rand, nodes, totalNodes int) time.Duration {
	base := stats.LogNormalFromMedian(m.MedianWait.Seconds(), m.Sigma).Sample(r)
	frac := 0.0
	if totalNodes > 0 {
		frac = float64(nodes) / float64(totalNodes)
	}
	w := base * (1 + m.WidthFactor*frac)
	wait := time.Duration(math.Round(w * float64(time.Second)))
	if wait < m.MinWait {
		wait = m.MinWait
	}
	if m.MaxWait > 0 && wait > m.MaxWait {
		wait = m.MaxWait
	}
	return wait
}

// Stochastic is a Queue whose waits are sampled from a WaitModel rather than
// emerging from simulated contention. It still enforces machine capacity at
// start time (a sampled start is delayed until nodes are free) and walltime
// limits, so pilot semantics are identical to the full System.
type Stochastic struct {
	eng   *sim.Sim
	name  string
	nodes int
	model WaitModel
	rng   *rand.Rand

	free        int
	queued      map[*Job]*sim.Event
	running     map[*Job]*sim.Event
	waiting     []*Job // sampled wait elapsed, blocked on capacity
	waitHistory []float64
	historyLen  int
	draining    bool
	redrain     bool
	offline     bool
	waitScale   float64 // surge factor for future samples; 0 or 1 = nominal

	created      sim.Time
	lastEvent    sim.Time
	busyNodeSecs float64
}

// NewStochastic creates a model-driven queue for a machine of the given size.
func NewStochastic(eng *sim.Sim, name string, nodes int, model WaitModel, rng *rand.Rand) *Stochastic {
	if nodes <= 0 {
		panic(fmt.Sprintf("batch: stochastic queue %q has %d nodes", name, nodes))
	}
	if err := model.Validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("batch: stochastic queue requires an RNG")
	}
	return &Stochastic{
		eng:        eng,
		name:       name,
		nodes:      nodes,
		model:      model,
		rng:        rng,
		free:       nodes,
		queued:     make(map[*Job]*sim.Event),
		running:    make(map[*Job]*sim.Event),
		historyLen: 512,
		created:    eng.Now(),
		lastEvent:  eng.Now(),
	}
}

var _ Queue = (*Stochastic)(nil)

// Name returns the queue name.
func (q *Stochastic) Name() string { return q.name }

// Nodes returns the machine size.
func (q *Stochastic) Nodes() int { return q.nodes }

// Submit implements Queue.
func (q *Stochastic) Submit(j *Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.Nodes > q.nodes {
		return fmt.Errorf("batch: job %q requests %d nodes but %s has %d",
			j.ID, j.Nodes, q.name, q.nodes)
	}
	if j.State != JobNew {
		return fmt.Errorf("batch: job %q resubmitted in state %v", j.ID, j.State)
	}
	j.State = JobQueued
	j.Submitted = q.eng.Now()
	wait := q.model.SampleWait(q.rng, j.Nodes, q.nodes)
	if q.waitScale > 0 && q.waitScale != 1 {
		wait = time.Duration(float64(wait) * q.waitScale)
	}
	job := j
	q.queued[j] = q.eng.Schedule(wait, func() {
		delete(q.queued, job)
		q.waiting = append(q.waiting, job)
		q.drain()
	})
	return nil
}

// Cancel implements Queue.
func (q *Stochastic) Cancel(j *Job) bool {
	if ev, ok := q.queued[j]; ok {
		q.eng.Cancel(ev)
		delete(q.queued, j)
		q.finish(j, JobCanceled)
		return true
	}
	for i, w := range q.waiting {
		if w == j {
			q.waiting = append(q.waiting[:i], q.waiting[i+1:]...)
			q.finish(j, JobCanceled)
			return true
		}
	}
	if ev, ok := q.running[j]; ok {
		q.eng.Cancel(ev)
		delete(q.running, j)
		q.release(j)
		q.finish(j, JobCanceled)
		q.drain()
		return true
	}
	return false
}

// Snapshot implements Queue.
func (q *Stochastic) Snapshot() Snapshot {
	now := q.eng.Now()
	busy := q.nodes - q.free
	elapsed := now.Sub(q.created).Seconds()
	util := 0.0
	if elapsed > 0 {
		util = (q.busyNodeSecs + float64(busy)*now.Sub(q.lastEvent).Seconds()) /
			(float64(q.nodes) * elapsed)
	}
	demand := 0.0
	count := 0
	for j := range q.queued {
		demand += float64(j.Nodes) * j.Walltime.Seconds()
		count++
	}
	for _, j := range q.waiting {
		demand += float64(j.Nodes) * j.Walltime.Seconds()
		count++
	}
	return Snapshot{
		Time:               now,
		TotalNodes:         q.nodes,
		FreeNodes:          q.free,
		RunningJobs:        len(q.running),
		QueuedJobs:         count,
		QueuedNodeSeconds:  demand,
		Utilization:        util,
		InstantUtilization: float64(busy) / float64(q.nodes),
	}
}

// WaitHistory implements Queue.
func (q *Stochastic) WaitHistory() []float64 {
	cp := make([]float64, len(q.waitHistory))
	copy(cp, q.waitHistory)
	return cp
}

// drain starts waiting jobs for which capacity is available, in order. A
// guard collapses reentrant calls from job callbacks into a rescan by the
// outermost invocation. An offline queue holds waiting jobs without starting
// them.
func (q *Stochastic) drain() {
	if q.offline {
		return
	}
	if q.draining {
		q.redrain = true
		return
	}
	q.draining = true
	defer func() { q.draining = false }()
	for {
		q.redrain = false
		q.drainOnce()
		if !q.redrain {
			return
		}
	}
}

func (q *Stochastic) drainOnce() {
	now := q.eng.Now()
	pending := q.waiting
	q.waiting = nil
	var rest []*Job
	for _, j := range pending {
		if j.State != JobQueued {
			continue // canceled by a callback during this scan
		}
		if j.Nodes > q.free {
			rest = append(rest, j)
			continue
		}
		q.accrue()
		q.free -= j.Nodes
		j.State = JobRunning
		j.Started = now
		q.recordWait(j.Started.Sub(j.Submitted).Seconds())

		hold := j.effectiveRuntime()
		terminal := JobCompleted
		if j.Runtime > j.Walltime {
			terminal = JobKilled
		}
		job, reason := j, terminal
		q.running[j] = q.eng.Schedule(hold, func() {
			delete(q.running, job)
			q.release(job)
			q.finish(job, reason)
			q.drain()
		})
		if j.OnStart != nil {
			j.OnStart(j)
		}
	}
	// Re-queue the blocked jobs ahead of any that arrived during the scan.
	q.waiting = append(rest, q.waiting...)
}

func (q *Stochastic) release(j *Job) {
	q.accrue()
	q.free += j.Nodes
}

func (q *Stochastic) finish(j *Job, state JobState) {
	j.State = state
	j.Ended = q.eng.Now()
	if j.OnEnd != nil {
		j.OnEnd(j)
	}
}

func (q *Stochastic) accrue() {
	now := q.eng.Now()
	busy := q.nodes - q.free
	q.busyNodeSecs += float64(busy) * now.Sub(q.lastEvent).Seconds()
	q.lastEvent = now
}

func (q *Stochastic) recordWait(seconds float64) {
	q.waitHistory = append(q.waitHistory, seconds)
	if len(q.waitHistory) > q.historyLen {
		q.waitHistory = q.waitHistory[len(q.waitHistory)-q.historyLen:]
	}
}
