// Package batch simulates HPC batch systems: node pools, job queues,
// scheduling policies (FCFS, EASY backfill, conservative backfill), a
// background workload generator that keeps the machine realistically loaded,
// and a calibrated stochastic queue-wait model.
//
// Two interchangeable implementations of the Queue interface exist:
//
//   - System: a full discrete-event batch scheduler where queue waits emerge
//     from contention with background jobs, and
//   - Stochastic: a lognormal queue-wait model calibrated per resource,
//     used by the headline experiments for speed and determinism.
//
// The paper's pilots are submitted to these queues through the SAGA adaptor
// layer (internal/saga).
package batch

import (
	"fmt"
	"time"

	"aimes/internal/sim"
)

// JobState enumerates the lifecycle of a batch job.
type JobState int

// Job lifecycle states.
const (
	JobNew       JobState = iota // created, not submitted
	JobQueued                    // waiting in the batch queue
	JobRunning                   // nodes allocated, executing
	JobCompleted                 // ran to completion within walltime
	JobKilled                    // exceeded walltime and was terminated
	JobCanceled                  // canceled while queued or running
	JobFailed                    // terminated by an injected node failure
)

var jobStateNames = map[JobState]string{
	JobNew:       "NEW",
	JobQueued:    "QUEUED",
	JobRunning:   "RUNNING",
	JobCompleted: "COMPLETED",
	JobKilled:    "KILLED",
	JobCanceled:  "CANCELED",
	JobFailed:    "FAILED",
}

func (s JobState) String() string {
	if n, ok := jobStateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// Final reports whether the state is terminal.
func (s JobState) Final() bool {
	switch s {
	case JobCompleted, JobKilled, JobCanceled, JobFailed:
		return true
	}
	return false
}

// Job is a batch job: a request for Nodes nodes for up to Walltime, with an
// actual computational duration of Runtime. For pilot jobs, Runtime is
// effectively unbounded (the pilot runs until canceled or killed at
// walltime), which is expressed with Runtime >= Walltime.
type Job struct {
	ID       string
	Nodes    int
	Runtime  time.Duration // actual execution duration
	Walltime time.Duration // requested (and enforced) limit

	Submitted sim.Time
	Started   sim.Time
	Ended     sim.Time
	State     JobState

	// OnStart fires when the job transitions to JobRunning.
	OnStart func(*Job)
	// OnEnd fires exactly once when the job reaches any terminal state.
	OnEnd func(*Job)

	endEvent *sim.Event
	failAt   time.Duration // >0: injected failure offset from start
}

// Wait returns the queue wait time. It is zero until the job has started;
// for jobs canceled while queued it is the time spent queued.
func (j *Job) Wait() time.Duration {
	switch {
	case j.State == JobQueued || j.State == JobNew:
		return 0
	case j.State == JobCanceled && j.Started == 0 && j.Ended >= j.Submitted:
		return j.Ended.Sub(j.Submitted)
	default:
		return j.Started.Sub(j.Submitted)
	}
}

// Validate reports a descriptive error for malformed job requests.
func (j *Job) Validate() error {
	if j.Nodes <= 0 {
		return fmt.Errorf("batch: job %q requests %d nodes", j.ID, j.Nodes)
	}
	if j.Walltime <= 0 {
		return fmt.Errorf("batch: job %q requests walltime %v", j.ID, j.Walltime)
	}
	if j.Runtime < 0 {
		return fmt.Errorf("batch: job %q has negative runtime %v", j.ID, j.Runtime)
	}
	return nil
}

// effectiveRuntime is how long the job will actually hold nodes: its runtime
// capped by the enforced walltime.
func (j *Job) effectiveRuntime() time.Duration {
	if j.Runtime > j.Walltime {
		return j.Walltime
	}
	return j.Runtime
}

// expectedEnd is the scheduler's estimate of when a running job frees its
// nodes; schedulers only know the user-declared walltime.
func (j *Job) expectedEnd() sim.Time { return j.Started.Add(j.Walltime) }

// Queue is the submission interface shared by the full batch simulator and
// the stochastic queue model. Implementations run on a sim.Sim; all
// callbacks fire on engine callbacks.
//
// A queue's availability can change mid-run — the resource volatility
// (outages, preemption, fluctuating load) that the paper's execution
// strategies are meant to cope with and that the scenario engine injects. An
// offline queue keeps accepting submissions (they model pent-up demand) but
// stops starting jobs until it is brought back online.
type Queue interface {
	// Submit validates and enqueues the job. The job's OnStart/OnEnd
	// callbacks fire as it progresses.
	Submit(j *Job) error
	// Cancel removes a queued job or kills a running one. It reports whether
	// the job was found in a non-terminal state.
	Cancel(j *Job) bool
	// Snapshot returns current queue/utilization metrics for bundle queries.
	Snapshot() Snapshot
	// WaitHistory returns recently observed queue waits (seconds) of started
	// jobs, most recent last, for predictive bundle queries.
	WaitHistory() []float64
	// SetOffline takes the queue out of service. When killRunning is true,
	// running jobs are terminated with JobFailed (a hard outage); otherwise
	// they run to completion on their nodes (a drain-style outage) while no
	// new job starts.
	SetOffline(killRunning bool)
	// SetOnline restores service and resumes dispatching.
	SetOnline()
	// Offline reports whether the queue is currently out of service.
	Offline() bool
}

// Snapshot is a point-in-time view of a batch system used by resource
// bundles ("on-demand" query mode in the paper).
type Snapshot struct {
	Time        sim.Time
	TotalNodes  int
	FreeNodes   int
	RunningJobs int
	QueuedJobs  int
	// QueuedNodeSeconds is the total outstanding demand in the queue:
	// sum over queued jobs of nodes × walltime, in node-seconds.
	QueuedNodeSeconds float64
	// Utilization is the time-averaged fraction of busy nodes since start.
	Utilization float64
	// InstantUtilization is the fraction of busy nodes right now.
	InstantUtilization float64
}
