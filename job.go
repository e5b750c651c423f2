package aimes

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aimes/internal/core"
	"aimes/internal/model"
	"aimes/internal/shard"
	"aimes/internal/trace"
)

// JobState is the lifecycle state of a submitted job.
type JobState int32

// Job lifecycle states.
const (
	// JobPending is the zero state of a handle before admission; it is never
	// observed on a job returned by Submit (which either enacts the job,
	// queues it, or rejects the submission).
	JobPending JobState = iota
	// JobQueued is a submitted job awaiting enactment behind its shard's
	// admission window. It only occurs on work-stealing environments
	// (WithWorkStealing): without stealing Submit enacts synchronously. A
	// queued job holds no engine state — no pilots, no events, no randomness
	// drawn — which is exactly what makes it safe to migrate to another
	// shard.
	JobQueued
	// JobRunning is an enacted job whose units are in flight.
	JobRunning
	// JobDone is a completed job with a report (individual units may still
	// have failed; see Report.UnitsFailed).
	JobDone
	// JobFailed is a job that cannot complete (e.g. the engine drained with
	// the workload incomplete, or the job's worker process died); Err holds
	// the cause.
	JobFailed
	// JobCanceled is a job ended by Cancel; the report accounts the
	// canceled units.
	JobCanceled
)

func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	}
	return fmt.Sprintf("JobState(%d)", int32(s))
}

// Final reports whether the state is terminal.
func (s JobState) Final() bool { return s >= JobDone }

// Event is one state transition of a job, read from its trace: pilot
// transitions ("pilot.stampede.s0-j3-1" → ACTIVE), unit transitions
// ("unit.task-0007" → EXECUTING) and execution-manager strategy transitions
// ("em" → ENACTING/MIGRATED/ADAPTED/CANCELED/DONE).
type Event struct {
	// Job is the originating job's sequence number (Job.ID).
	Job int
	// Seq is the event's position in its job's trace, dense from 1 and the
	// same on every read: a gap between two events is exactly what was lost.
	Seq int64
	// Time is the engine time of the transition (offset from the job's
	// shard epoch; shards keep independent clocks).
	Time time.Duration
	// Entity names what changed state, e.g. "pilot.comet.s1-j2-1",
	// "unit.t0004", or "em" for the execution manager itself.
	Entity string
	// State is the new state, e.g. "PENDING_ACTIVE", "EXECUTING", "ADAPTED".
	State string
	// Detail carries transition-specific context.
	Detail string
}

// Placement selects how Submit maps jobs onto the environment's parallel
// simulation shards (see WithShards).
type Placement = shard.Policy

// Placement policies.
const (
	// PlaceRoundRobin cycles submissions across shards in order (the
	// default). With a fixed submission sequence it is deterministic.
	PlaceRoundRobin = shard.RoundRobin
	// PlaceLeastLoaded places the job on the shard with the smallest
	// effective load — pending expected core-seconds (Σ duration × cores
	// over the workload) weighted by the shard's observed drain rate — at
	// the cost of placement depending on completion timing.
	PlaceLeastLoaded = shard.LeastLoaded
	// PlacePinned places the job on JobConfig.Shard. Pin jobs that need
	// cross-run determinism: the same environment seed and the same
	// per-shard submission order reproduce identical reports, regardless of
	// traffic on other shards. On work-stealing environments a pinned,
	// non-migratable submission also seals its shard against incoming
	// migrants, so the contract survives other shards' jobs migrating.
	PlacePinned = shard.Pinned
	// PlacePredictive places the job on the shard with the minimum
	// predicted completion time from the analytical cost model
	// (internal/model): fitted queue wait + backlog drain + the job's own
	// service time at the shard's fitted drain rate. Until completions have
	// warmed the fits this ranks shards exactly like PlaceLeastLoaded; after
	// that it prefers the shard that will finish the job soonest, which on
	// heterogeneous shards is not always the one with the least backlog.
	PlacePredictive = shard.Predictive
)

// MigratePolicy controls whether cross-shard work stealing may hand a
// still-queued job to another shard before enactment (see WithWorkStealing).
// Only queued jobs ever migrate: once enacted, a job's pilots and events are
// bound to its shard and other waiters can at most help pump that shard.
type MigratePolicy int

// Migrate policies.
const (
	// MigrateAuto (the zero value) lets round-robin and least-loaded jobs
	// migrate and keeps pinned jobs where they were pinned.
	MigrateAuto MigratePolicy = iota
	// MigrateAllow opts in explicitly — including pinned jobs, whose pin
	// then only seeds the initial placement. A migratable pinned job does
	// not seal its shard.
	MigrateAllow
	// MigrateNever opts out: the job runs on the shard it was placed on no
	// matter how skewed the load gets. Unlike a pinned submission it does
	// not seal the shard against migrants; determinism-critical tenants pin.
	MigrateNever
)

// JobConfig configures one Submit call.
type JobConfig struct {
	// StrategyConfig holds the derivation knobs; ignored when Strategy is
	// set. Submit validates it (Environment.Validate) before deriving.
	StrategyConfig
	// Strategy, when non-nil, is enacted verbatim instead of deriving one
	// from StrategyConfig.
	Strategy *Strategy
	// Adaptive, when non-nil, enables runtime strategy adaptation (extra
	// pilots on slow activation, lost-pilot replacement).
	Adaptive *AdaptiveConfig
	// Placement selects the shard the job runs on: PlaceRoundRobin (the
	// zero value), PlaceLeastLoaded, PlacePredictive, or PlacePinned.
	Placement Placement
	// Shard is the target shard index when Placement is PlacePinned
	// (0 <= Shard < Environment.Shards()); ignored otherwise.
	Shard int
	// Migrate controls whether work stealing may move the job to another
	// shard while it is still queued: MigrateAuto (the zero value),
	// MigrateAllow, or MigrateNever. Ignored without WithWorkStealing.
	Migrate MigratePolicy
}

// Job is an asynchronous handle on one submitted workload. All methods are
// safe for concurrent use.
type Job struct {
	id         int
	env        *Environment
	w          *Workload
	cfg        JobConfig
	cost       int64 // expected work, milli-core-seconds
	migratable bool

	// sh is the shard currently responsible for the job. It changes at most
	// once, during a queued job's migration handoff; after enactment it is
	// stable.
	sh atomic.Pointer[shardEnv]

	state atomic.Int32

	// stream is the job's thread through its shard's trace log. Allocated
	// apart from the Job: the log's entries point at it while retained.
	stream *trace.Stream

	// mu guards the admission/handoff fields and the terminal outcome.
	// Lock order: a shard's engine lock is always taken before a job's mu,
	// never the other way around.
	mu           sync.Mutex
	ns           string
	strategy     Strategy
	predicted    float64 // model-predicted completion at enactment, virtual seconds
	enacted      bool
	handoff      bool // popped from its origin's queue, not yet landed
	hopped       bool // migrated once already; jobs move at most one hop
	migratedFrom int  // origin shard of the hop, -1 when never migrated
	completed    bool
	report       *Report
	err          error
	cancelReason string
	done         chan struct{}
}

// ID returns the job's sequence number within its environment (1-based,
// across all shards).
func (j *Job) ID() int { return j.id }

// Shard returns the index of the simulation shard currently responsible for
// the job. It is stable once the job is enacted; a queued job on a
// work-stealing environment may migrate once.
func (j *Job) Shard() int { return j.sh.Load().id }

// Migrated reports whether the job was handed to another shard by
// cross-shard work stealing before enactment.
func (j *Job) Migrated() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.migratedFrom >= 0
}

// Namespace returns the job's shard-qualified namespace, "s<shard>-j<seq>"
// with a shard-local sequence number, assigned at enactment ("" while the
// job is still queued). It scopes the job's pilot IDs
// ("pilot.<resource>.s0-j3-1") and its "em"/"unit" entities in the aggregate
// trace ("em.s0-j3", "unit.s0-j3.<name>"). A migrated job's namespace names
// the destination shard.
func (j *Job) Namespace() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ns
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState { return JobState(j.state.Load()) }

// Strategy returns the enacted execution strategy (the zero Strategy while
// the job is still queued — a queued job has not derived one yet).
func (j *Job) Strategy() Strategy {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.strategy
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Report returns the final report, or nil while the job is running.
func (j *Job) Report() *Report {
	r, _ := j.outcome()
	return r
}

// outcome returns the terminal report and error, both nil until the job has
// ended.
func (j *Job) outcome() (*Report, error) {
	if !j.finished() {
		return nil, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report, j.err
}

// PredictedTTC returns the completion time the analytical cost model
// predicted for this job at the moment it was enacted on its shard — the
// fitted pilot queue wait plus the job's service time at the shard's fitted
// drain rate — or 0 while the job is still queued. Compare with
// Report().TTC to score the model (the fidelity harness and the scenario
// `model` assertion do exactly that).
func (j *Job) PredictedTTC() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return time.Duration(j.predicted * float64(time.Second))
}

// Err returns the terminal error for failed jobs, or nil.
func (j *Job) Err() error {
	_, err := j.outcome()
	return err
}

// Events ranges over the job's events — every pilot, unit and strategy
// transition, in order, from the first — blocking for the next while the job
// runs and ending after the last once it has ended. Each call is an
// independent reader; one started after the job finished replays it. The
// events are read from the shard's trace log, the one place they are stored:
// the simulation never waits for a reader, and a reader loses events only
// when they leave the log's window (the shard's most recent 2^20 records)
// before it gets to them — a gap in Event.Seq, counted by EventsDropped.
func (j *Job) Events() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		sub := j.Subscribe(1)
		defer sub.Close()
		read := int64(0)
		for r := range sub.C() {
			// What the cursor lost, it lost before this record: Seq is dense.
			if read++; !yield(Event{Job: j.id, Seq: read + sub.Dropped(), Time: r.Time.Duration(),
				Entity: r.Entity, State: r.State, Detail: r.Detail}) {
				return
			}
		}
	}
}

// Subscribe is the non-blocking form of Events, for a reader that multiplexes
// the stream with other work or resumes where an earlier one stopped: a
// cursor at sequence number from (below 1 means the beginning) whose Read
// returns raw records and the Seq of the first, and reports done once the
// job has ended and its last record was read. Close it when done.
func (j *Job) Subscribe(from int64) *TraceSub { return j.stream.Cursor(from) }

// EventsDropped reports how many of the job's events its readers, all
// together, found already evicted from the shard's trace log: 0 unless the
// shard logged 2^20 newer records before a reader got to them.
func (j *Job) EventsDropped() int64 { return j.stream.Missed() }

// Wait blocks until the job completes and returns its report. On a
// virtual-time environment the waiting goroutine pumps the job's shard
// (whoever waits, advances that shard's time — concurrent waiters interleave
// on the same shard and run in parallel across shards); on a wall-clock
// environment it blocks while the shard's pacer fires events as they come
// due. On a work-stealing environment
// the waiter additionally migrates its own still-queued job to a less loaded
// shard, helps pump the busiest shard while its own is locked, and on its
// way out hands one queued job from the busiest queue to an idle shard.
//
// ctx bounds the wait only: when it expires, Wait returns ctx.Err() and the
// job keeps running (use Cancel, or a Submit ctx, to stop the job itself).
// Canceled jobs return their report with a nil error; inspect Job.State and
// Report.UnitsCanceled to distinguish them.
func (j *Job) Wait(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e := j.env
	if j.sh.Load().pace != nil {
		// The shard's pacer fires events when the wall clock says so; a pump
		// would fire them early.
		select {
		case <-j.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	for {
		select {
		case <-j.done:
			e.stealForward()
			return j.outcome()
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		sh := j.sh.Load()
		if e.steal && j.State() == JobQueued {
			if e.migrateJob(j, false) {
				continue // pump the new shard next iteration
			}
		}
		if sh.pump(j) {
			// Stalled: the shard drained with our migratable job still
			// queued behind a wedged admission window. Force it onto any
			// open shard; if every other shard is sealed, it can never start.
			if !e.migrateJob(j, true) {
				j.failStalled(sh)
			}
		}
	}
}

// failStalled ends a queued job that can never start: its shard's engine
// drained with the admission window wedged, and no open shard can take it.
// The no-op guards make it safe against racing migrations and cancels.
func (j *Job) failStalled(sh *shardEnv) {
	sh.sync(func() {
		if j.sh.Load() != sh || j.State() != JobQueued || !sh.adm.withdraw(j) {
			return // an in-flight handoff, an admit pass or a cancel owns the job now
		}
		j.complete(nil, fmt.Errorf("aimes: shard s%d drained with the job still queued behind %d wedged jobs and no open shard to migrate to", sh.id, sh.adm.running))
	})
}

// Cancel aborts a job: a queued job completes immediately with every unit
// accounted as canceled; a running job has its non-final units canceled and
// its pilots torn down, completing in state JobCanceled with a report
// accounting the canceled units. Canceling a finished job is a no-op.
func (j *Job) Cancel(reason string) {
	if reason == "" {
		reason = "canceled"
	}
	for {
		if j.finished() {
			return
		}
		sh := j.sh.Load()
		handled := false
		sh.sync(func() {
			if j.sh.Load() != sh {
				return // migrated under our feet; retry on the new shard
			}
			handled = j.cancelLocked(sh, reason)
		})
		if handled {
			return
		}
		runtime.Gosched()
	}
}

// cancelLocked runs under sh's engine serialization. It reports whether the
// cancel was delivered — directly, or left for an in-flight handoff to honor
// on landing; false means the job moved to another shard and the caller must
// retry there.
func (j *Job) cancelLocked(sh *shardEnv, reason string) bool {
	if j.finished() {
		return true
	}
	j.mu.Lock()
	if j.cancelReason == "" {
		j.cancelReason = reason
	}
	owner := j.sh.Load()
	enacted, handoff := j.enacted, j.handoff
	j.mu.Unlock()
	if owner != sh {
		// The job landed elsewhere after the caller captured its shard; the
		// reason is recorded, but tearing down engine state must happen
		// under the owner's serialization.
		return false
	}
	switch {
	case enacted:
		// Canceling the last unit fires the backend's completion event,
		// which the sink turns into the job's canceled-units report before
		// Cancel returns.
		if err := sh.be.Cancel(j.id, reason); err != nil && !j.finished() {
			j.complete(nil, fmt.Errorf("aimes: shard s%d: canceling: %w", sh.id, err))
		}
		return true
	case handoff:
		// Popped from its origin, not yet landed: the migrator observes the
		// reason under the destination's lock and completes the job there.
		return true
	default:
		// Still queued on sh: unlink and finish without ever enacting.
		sh.adm.withdraw(j)
		j.complete(core.CanceledReport(j.w), nil)
		return true
	}
}

// ownedByLocked reports whether sh is currently responsible for j. The
// caller holds sh's engine lock; the shard pointer and handoff flag are
// re-read under j.mu, so a handoff that moved the job after the caller
// captured its shard cannot be missed: phase 1 (pop, handoff=true) runs
// under the origin's lock — excluded while the caller holds it — and
// phase 2's landing publishes the new shard pointer before clearing the
// flag. Without this check a waiter pumping the drained origin could
// misattribute the origin's empty engine to a job that just enacted on its
// destination, and fail or cancel it against the wrong engine.
func (j *Job) ownedByLocked(sh *shardEnv) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sh.Load() == sh && !j.handoff
}

// finished reports terminal state without blocking.
func (j *Job) finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// complete records the terminal outcome exactly once and releases waiters
// and event consumers. Every completion path — backend completion events,
// pump drains, cancels, handoff landings, worker deaths — runs under the
// current shard's engine serialization, which is what makes the admission
// bookkeeping (running, queue, jobs) safe here.
func (j *Job) complete(r *Report, err error) {
	j.mu.Lock()
	if j.completed {
		j.mu.Unlock()
		return
	}
	j.completed = true
	j.report, j.err = r, err
	st := JobDone
	switch {
	case j.cancelReason != "":
		st = JobCanceled
	case err != nil:
		st = JobFailed
	}
	j.state.Store(int32(st))
	enacted, predicted := j.enacted, j.predicted
	j.mu.Unlock()
	sh := j.sh.Load()
	delete(sh.jobs, j.id)
	sh.pendingCost.Add(-j.cost)
	if st == JobDone {
		// Completed work feeds the observed-throughput side of weighted
		// placement; canceled and failed jobs tell us nothing about rate.
		sh.doneCost.Add(j.cost)
		sh.doneJobs.Add(1)
		if r != nil {
			// Feed the analytical twin: the job's measured wait and
			// completion refit the shard's drain rate and queue wait, and
			// the events fired since the last completion that saw the
			// counter move refit its per-job event demand. Events fire in
			// batches, so the delta stays 0 for completions within one
			// batch and then covers them all at once — EventsJobs tells
			// the fit how many. (lastDoneEvents/lastDoneJobs are guarded
			// by the shard serialization every completion path runs
			// under.)
			var delta, jobs int64
			if fired := sh.eventsFired.Load(); fired > sh.lastDoneEvents {
				delta = fired - sh.lastDoneEvents
				jobs = sh.doneJobs.Load() - sh.lastDoneJobs
				sh.lastDoneEvents = fired
				sh.lastDoneJobs = sh.doneJobs.Load()
			}
			j.env.model.Observe(model.Observation{
				Shard:      sh.id,
				Cost:       float64(j.cost) / 1000,
				Wait:       r.Tw.Seconds(),
				TTC:        r.TTC.Seconds(),
				Events:     delta,
				EventsJobs: jobs,
				Predicted:  predicted,
			})
		}
	}
	if enacted {
		sh.adm.done()
	}
	close(j.done)
	j.stream.End() // after done: a reader that sees the end finds the outcome set
}
