package saga

import (
	"fmt"

	"aimes/internal/batch"
	"aimes/internal/sim"
	"aimes/internal/site"
)

// batchJob implements Job for the batch adaptor.
type batchJob struct {
	id        string
	desc      Description
	resource  string
	state     State
	detail    string
	submitted sim.Time
	started   sim.Time
	ended     sim.Time
	inner     *batch.Job
	cb        StateCallback
}

func (j *batchJob) ID() string               { return j.id }
func (j *batchJob) State() State             { return j.state }
func (j *batchJob) Detail() string           { return j.detail }
func (j *batchJob) Description() Description { return j.desc }
func (j *batchJob) Resource() string         { return j.resource }
func (j *batchJob) SubmittedAt() sim.Time    { return j.submitted }
func (j *batchJob) StartedAt() sim.Time      { return j.started }
func (j *batchJob) EndedAt() sim.Time        { return j.ended }

func (j *batchJob) transition(state State, detail string) {
	j.state = state
	j.detail = detail
	if j.cb != nil {
		j.cb(j, state)
	}
}

// BatchAdaptor submits jobs to a simulated site's batch queue, converting
// core requests to whole nodes and charging the site's submission latency.
// It mirrors the role of SAGA's PBS/Slurm/GSISSH adaptors.
type BatchAdaptor struct {
	eng  *sim.Sim
	site *site.Site
	seq  int
	// pendingCancel tracks jobs canceled during the submission latency
	// window, before the batch system knows about them.
	pendingCancel map[*batchJob]bool
}

// NewBatchAdaptor returns a Service submitting to the site's queue.
func NewBatchAdaptor(eng *sim.Sim, s *site.Site) *BatchAdaptor {
	return &BatchAdaptor{eng: eng, site: s, pendingCancel: make(map[*batchJob]bool)}
}

var _ Service = (*BatchAdaptor)(nil)

// Resource implements Service.
func (a *BatchAdaptor) Resource() string { return a.site.Name() }

// Submit implements Service.
func (a *BatchAdaptor) Submit(d Description, cb StateCallback) (Job, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cfg := a.site.Config()
	nodes := cfg.NodesFor(d.Cores)
	if nodes > cfg.Nodes {
		return nil, fmt.Errorf("saga: %s: %d cores (%d nodes) exceed machine size %d nodes",
			cfg.Name, d.Cores, nodes, cfg.Nodes)
	}
	a.seq++
	j := &batchJob{
		id:        fmt.Sprintf("%s.%04d", cfg.Name, a.seq),
		desc:      d,
		resource:  cfg.Name,
		state:     New,
		cb:        cb,
		submitted: a.eng.Now(),
	}
	// The submission latency models the client → resource-manager round
	// trip; the job reaches the remote queue only after it elapses.
	a.eng.Schedule(cfg.SubmitLatency, func() {
		if a.pendingCancel[j] {
			delete(a.pendingCancel, j)
			j.ended = a.eng.Now()
			j.transition(Canceled, "canceled before submission")
			return
		}
		if !a.site.Online() {
			// The resource manager is unreachable: the submission round trip
			// fails, as it would against a dead head node.
			j.ended = a.eng.Now()
			j.transition(Failed, "resource offline")
			return
		}
		inner := &batch.Job{
			ID:       j.id,
			Nodes:    nodes,
			Runtime:  d.Runtime,
			Walltime: d.Walltime,
		}
		inner.OnStart = func(*batch.Job) {
			j.started = a.eng.Now()
			j.transition(Running, "")
		}
		inner.OnEnd = func(bj *batch.Job) {
			j.ended = a.eng.Now()
			switch bj.State {
			case batch.JobCompleted:
				j.transition(Done, "")
			case batch.JobKilled:
				j.transition(Failed, "walltime")
			case batch.JobCanceled:
				j.transition(Canceled, "")
			case batch.JobFailed:
				j.transition(Failed, "resource failure")
			default:
				j.transition(Failed, fmt.Sprintf("unexpected state %v", bj.State))
			}
		}
		j.inner = inner
		if err := a.site.Queue().Submit(inner); err != nil {
			j.ended = a.eng.Now()
			j.transition(Failed, err.Error())
			return
		}
		j.transition(Pending, "")
	})
	return j, nil
}

// Cancel implements Service.
func (a *BatchAdaptor) Cancel(job Job) bool {
	j, ok := job.(*batchJob)
	if !ok {
		return false
	}
	if j.state.Final() {
		return false
	}
	if j.inner == nil {
		// Still inside the submission latency window.
		if a.pendingCancel[j] {
			return false
		}
		a.pendingCancel[j] = true
		return true
	}
	return a.site.Queue().Cancel(j.inner)
}
