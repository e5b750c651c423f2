package saga

import (
	"fmt"
	"strconv"

	"aimes/internal/batch"
	"aimes/internal/sim"
	"aimes/internal/site"
)

// Job is a job submitted through a Service. Its storage belongs to the
// submitter, who keeps it until the job is final, so a job costs no
// allocation of its own: a pilot carries its job inside it. It holds the
// batch job it puts on the site's queue, and observes it there, and the
// event that models the submission round trip.
type Job struct {
	inner   batch.Job // on the queue once its state leaves batch.JobNew
	sent    sim.Event // the submission latency elapsing
	adaptor *BatchAdaptor
	state   State
	detail  string
	obs     Observer
	// cancelPending marks a job canceled during the submission latency
	// window, before the batch system knows about it.
	cancelPending bool
}

// ID is unique within the service.
func (j *Job) ID() string { return j.inner.ID }

// Detail explains terminal states (e.g. "walltime").
func (j *Job) Detail() string { return j.detail }

func (j *Job) transition(state State, detail string) {
	j.state = state
	j.detail = detail
	if j.obs != nil {
		j.obs.JobState(j, state)
	}
}

// queued is a Job as the observer of its batch job.
type queued Job

// Started implements batch.Observer.
func (q *queued) Started(*batch.Job) {
	(*Job)(q).transition(Running, "")
}

// Ended implements batch.Observer.
func (q *queued) Ended(bj *batch.Job) {
	j := (*Job)(q)
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
func (a *BatchAdaptor) Submit(j *Job, d Description, obs Observer) error {
	if err := d.Validate(); err != nil {
		return err
	}
	cfg := a.site.Config()
	nodes := cfg.NodesFor(d.Cores)
	if nodes > cfg.Nodes {
		return fmt.Errorf("saga: %s: %d cores (%d nodes) exceed machine size %d nodes",
			cfg.Name, d.Cores, nodes, cfg.Nodes)
	}
	a.seq++
	var buf [64]byte
	id := d.ID
	if want := AppendJobID(buf[:0], cfg.Name, a.seq); string(want) != id {
		id = string(want)
	}
	*j = Job{adaptor: a, state: New, obs: obs}
	j.inner = batch.Job{
		ID:       id,
		Nodes:    nodes,
		Runtime:  d.Runtime,
		Walltime: d.Walltime,
		Observer: (*queued)(j),
	}
	// The submission latency models the client → resource-manager round
	// trip; the job reaches the remote queue only after it elapses.
	j.sent.Init((*submission)(j))
	a.eng.Arm(&j.sent, cfg.SubmitLatency)
	return nil
}

// NextSeq implements Service.
func (a *BatchAdaptor) NextSeq() int { return a.seq + 1 }

// AppendJobID appends the ID of the seq'th job a service of the resource
// accepts, "<resource>.<seq>" with seq zero-padded to four digits.
func AppendJobID(dst []byte, resource string, seq int) []byte {
	id := append(append(dst, resource...), '.')
	for p := 1000; p > 1 && seq < p; p /= 10 {
		id = append(id, '0')
	}
	return strconv.AppendInt(id, int64(seq), 10)
}

// submission is a Job as the handler of its submission latency event.
type submission Job

func (s *submission) Fire() {
	j := (*Job)(s)
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
func (a *BatchAdaptor) Cancel(j *Job) bool {
	if j.adaptor != a {
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
