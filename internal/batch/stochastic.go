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

	free int
	// queued holds every job in JobQueued, in submission order; waiting the
	// ones whose sampled wait is over but that are blocked on capacity, in
	// the order their waits ended; running the jobs holding nodes.
	queued    []*Job
	waiting   []*Job
	running   []*Job
	draining  bool
	redrain   bool
	offline   bool
	waitScale float64 // surge factor for future samples; 0 or 1 = nominal

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
		eng:       eng,
		name:      name,
		nodes:     nodes,
		model:     model,
		rng:       rng,
		free:      nodes,
		created:   eng.Now(),
		lastEvent: eng.Now(),
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
	j.queue = q
	wait := q.model.SampleWait(q.rng, j.Nodes, q.nodes)
	if q.waitScale > 0 && q.waitScale != 1 {
		wait = time.Duration(float64(wait) * q.waitScale)
	}
	q.queued = append(q.queued, j)
	j.ev.Init((*sampledWait)(j))
	q.eng.Arm(&j.ev, wait)
	return nil
}

// sampledWait is a Stochastic queue's job as the handler of its wait event.
type sampledWait Job

func (w *sampledWait) Fire() {
	j := (*Job)(w)
	q := j.queue.(*Stochastic)
	q.waiting = append(q.waiting, j)
	q.drain()
}

// Cancel implements Queue.
func (q *Stochastic) Cancel(j *Job) bool {
	if j.queue != Queue(q) {
		return false
	}
	switch j.State {
	case JobQueued:
		if !q.eng.Cancel(&j.ev) {
			// Its wait is over: it is waiting on capacity. A scan in progress
			// drops canceled jobs itself, so have it scan once more.
			if q.draining {
				q.redrain = true
			} else {
				q.waiting = remove(q.waiting, j)
			}
		}
		q.queued = remove(q.queued, j)
		q.finish(j, JobCanceled)
		return true
	case JobRunning:
		q.eng.Cancel(&j.ev)
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
	for _, j := range q.queued {
		demand += float64(j.Nodes) * j.Walltime.Seconds()
	}
	return Snapshot{
		Time:               now,
		TotalNodes:         q.nodes,
		FreeNodes:          q.free,
		RunningJobs:        len(q.running),
		QueuedJobs:         len(q.queued),
		QueuedNodeSeconds:  demand,
		Utilization:        util,
		InstantUtilization: float64(busy) / float64(q.nodes),
	}
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

// drainOnce scans the waiting jobs in order, in place: each that fits
// starts, the others keep their order.
func (q *Stochastic) drainOnce() {
	now := q.eng.Now()
	kept, scan := 0, len(q.waiting)
	for i := 0; i < scan; i++ {
		j := q.waiting[i]
		if j.State != JobQueued {
			continue // canceled, perhaps by a callback during this scan
		}
		if j.Nodes > q.free {
			q.waiting[kept] = j
			kept++
			continue
		}
		q.start(j, now)
	}
	// Jobs whose wait ended during the scan queue behind the blocked ones.
	n := kept + copy(q.waiting[kept:], q.waiting[scan:])
	clear(q.waiting[n:])
	q.waiting = q.waiting[:n]
}

// start gives a job its nodes and arms the end of its hold.
func (q *Stochastic) start(j *Job, now sim.Time) {
	q.queued = remove(q.queued, j)
	q.accrue()
	q.free -= j.Nodes
	j.State = JobRunning
	j.Started = now

	j.endState = JobCompleted
	if j.Runtime > j.Walltime {
		j.endState = JobKilled
	}
	q.running = append(q.running, j)
	j.ev.Init((*stochasticHold)(j))
	q.eng.Arm(&j.ev, j.effectiveRuntime())
	if j.Observer != nil {
		j.Observer.Started(j)
	}
}

// stochasticHold is a Stochastic queue's job as the handler of its end event.
type stochasticHold Job

func (h *stochasticHold) Fire() {
	j := (*Job)(h)
	q := j.queue.(*Stochastic)
	q.release(j)
	q.finish(j, j.endState)
	q.drain()
}

// release returns a running job's nodes to the pool.
func (q *Stochastic) release(j *Job) {
	q.accrue()
	q.free += j.Nodes
	q.running = remove(q.running, j)
}

func (q *Stochastic) finish(j *Job, state JobState) {
	j.State = state
	j.Ended = q.eng.Now()
	if j.Observer != nil {
		j.Observer.Ended(j)
	}
}

func (q *Stochastic) accrue() {
	now := q.eng.Now()
	busy := q.nodes - q.free
	q.busyNodeSecs += float64(busy) * now.Sub(q.lastEvent).Seconds()
	q.lastEvent = now
}
