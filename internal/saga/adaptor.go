package saga

import (
	"fmt"
	"strconv"

	"aimes/internal/batch"
	"aimes/internal/sim"
	"aimes/internal/site"
)

// batchJob implements Job for the batch adaptor. It carries the job it puts
// on the site's queue, and observes it there, and the event that models the
// submission round trip.
type batchJob struct {
	inner   batch.Job // on the queue once its state leaves batch.JobNew
	sent    sim.Event // the submission latency elapsing
	adaptor *BatchAdaptor
	desc    Description
	state   State
	detail  string
	cb      StateCallback
	// cancelPending marks a job canceled during the submission latency
	// window, before the batch system knows about it.
	cancelPending bool
}

func (j *batchJob) ID() string               { return j.inner.ID }
func (j *batchJob) Detail() string           { return j.detail }
func (j *batchJob) Description() Description { return j.desc }
func (j *batchJob) Resource() string         { return j.adaptor.Resource() }

func (j *batchJob) transition(state State, detail string) {
	j.state = state
	j.detail = detail
	if j.cb != nil {
		j.cb(j, state)
	}
}

// Started implements batch.Observer.
func (j *batchJob) Started(*batch.Job) {
	j.transition(Running, "")
}

// Ended implements batch.Observer.
func (j *batchJob) Ended(bj *batch.Job) {
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

// BatchAdaptor submits jobs to a simulated site's batch queue, converting
// core requests to whole nodes and charging the site's submission latency.
// It mirrors the role of SAGA's PBS/Slurm/GSISSH adaptors.
type BatchAdaptor struct {
	eng  *sim.Sim
	site *site.Site
	seq  int
}

// NewBatchAdaptor returns a Service submitting to the site's queue.
func NewBatchAdaptor(eng *sim.Sim, s *site.Site) *BatchAdaptor {
	return &BatchAdaptor{eng: eng, site: s}
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
		adaptor: a,
		desc:    d,
		state:   New,
		cb:      cb,
	}
	j.inner = batch.Job{
		ID:       jobID(cfg.Name, a.seq),
		Nodes:    nodes,
		Runtime:  d.Runtime,
		Walltime: d.Walltime,
		Observer: j,
	}
	// The submission latency models the client → resource-manager round
	// trip; the job reaches the remote queue only after it elapses.
	j.sent.Init((*submission)(j))
	a.eng.Arm(&j.sent, cfg.SubmitLatency)
	return j, nil
}

// jobID is the ID of an adaptor's seq'th job, "<resource>.<seq>" with seq
// zero-padded to four digits.
func jobID(resource string, seq int) string {
	var buf [64]byte
	id := append(append(buf[:0], resource...), '.')
	for p := 1000; p > 1 && seq < p; p /= 10 {
		id = append(id, '0')
	}
	return string(strconv.AppendInt(id, int64(seq), 10))
}

// submission is a batchJob as the handler of its submission latency event.
type submission batchJob

func (s *submission) Fire() {
	j := (*batchJob)(s)
	a := j.adaptor
	if j.cancelPending {
		j.transition(Canceled, "canceled before submission")
		return
	}
	if !a.site.Online() {
		// The resource manager is unreachable: the submission round trip
		// fails, as it would against a dead head node.
		j.transition(Failed, "resource offline")
		return
	}
	if err := a.site.Queue().Submit(&j.inner); err != nil {
		j.transition(Failed, err.Error())
		return
	}
	j.transition(Pending, "")
}

// Cancel implements Service.
func (a *BatchAdaptor) Cancel(job Job) bool {
	j, ok := job.(*batchJob)
	if !ok || j.adaptor != a {
		return false
	}
	if j.state.Final() {
		return false
	}
	if j.inner.State == batch.JobNew {
		// Still inside the submission latency window.
		if j.cancelPending {
			return false
		}
		j.cancelPending = true
		return true
	}
	return a.site.Queue().Cancel(&j.inner)
}
