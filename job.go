package aimes

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aimes/internal/backend"
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

// Submit validates, places and admits a workload on the shared environment,
// returning an asynchronous Job handle immediately. The job is placed on one
// of the environment's simulation shards (cfg.Placement: round-robin by
// default, least-loaded by weighted expected work, or pinned); any number of
// jobs run concurrently, and jobs on different shards execute truly in
// parallel. Without WithWorkStealing the job is enacted synchronously
// (JobRunning on return); with it, a shard whose admission window is full
// queues the job un-enacted (JobQueued) where work stealing may migrate it.
// Each enacted job gets its own trace recorder, a shard-qualified pilot-ID
// namespace ("s<shard>-j<seq>", shard-local sequence), and an event stream;
// within a shard the engine interleaves tenants fairly in submission order
// at each timestep.
//
// ctx gates admission (a canceled context rejects the submission) and bounds
// the job's lifetime: if ctx is canceled while the job runs, the job is
// canceled. Waiting and job lifetime are otherwise independent — pass
// context.Background() for an unbounded job.
func (e *Environment) Submit(ctx context.Context, w *Workload, cfg JobConfig) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Reject early when the environment is gone or going: a closed
	// environment has no backends to enact on, and a draining one has
	// promised its waiters no new work will be admitted. Both races
	// (Close/Drain concurrent with a Submit already past this check) still
	// resolve to descriptive errors — a dead backend fails the enactment,
	// and Drain's live-job sweep loops until the stragglers finish.
	if e.closed.Load() {
		return nil, fmt.Errorf("aimes: Submit on closed environment")
	}
	if e.draining.Load() {
		return nil, fmt.Errorf("aimes: Submit rejected: environment is draining (shutting down)")
	}
	// Validate before placement, so rejected submissions perturb neither the
	// round-robin cursor nor any ID sequence. (Derivation itself can still
	// fail on the shard; see the ID rollback below.)
	if cfg.Migrate < MigrateAuto || cfg.Migrate > MigrateNever {
		return nil, fmt.Errorf("aimes: unknown migrate policy %d (want MigrateAuto, MigrateAllow or MigrateNever)", int(cfg.Migrate))
	}
	if cfg.Strategy != nil {
		if w == nil || w.TotalTasks() == 0 {
			return nil, fmt.Errorf("aimes: zero-task workload (generate tasks before submitting)")
		}
	} else if err := e.Validate(w, cfg.StrategyConfig); err != nil {
		return nil, err
	}

	cost := int64(w.CoreSeconds() * 1000)
	if cost < 1 {
		cost = 1
	}
	migratable := e.steal && cfg.Migrate != MigrateNever &&
		(cfg.Migrate == MigrateAllow || cfg.Placement != PlacePinned)

	// Placement, global-ID allocation and the load reservation form one
	// critical section under the submission lock: reserving the job's
	// expected cost on the picked shard before the lock is released is what
	// keeps pick-plus-increment atomic — two concurrent least-loaded
	// Submits can no longer both observe the same "least loaded" shard. The
	// lock is never held across the shard's derive/enact critical section,
	// so a busy shard cannot stall submissions to the others.
	e.jobMu.Lock()
	// The weighted-load snapshot is built lazily: the picker only consults
	// it for least-loaded placement, and round-robin/pinned submissions
	// should not pay the O(shards) scan under the hottest lock.
	var load func(int) float64
	k, err := e.picker.Pick(cfg.Placement, cfg.Shard, float64(cost)/1000, func(k int) float64 {
		if load == nil {
			load = e.loadFunc()
		}
		return load(k)
	})
	if err != nil {
		e.jobMu.Unlock()
		return nil, err
	}
	sh := e.shards[k]
	id := e.jobSeq + 1
	e.jobSeq = id
	sh.pendingCost.Add(cost)
	e.jobMu.Unlock()

	j := &Job{
		id:           id,
		env:          e,
		w:            w,
		cfg:          cfg,
		cost:         cost,
		migratable:   migratable,
		stream:       new(trace.Stream),
		done:         make(chan struct{}),
		migratedFrom: -1,
	}
	j.sh.Store(sh)

	var reterr error
	sh.sync(func() {
		if e.steal && cfg.Placement == PlacePinned && cfg.Migrate != MigrateAllow {
			// A pinned, non-migratable tenant claims determinism on this
			// shard: seal it so no migrant ever lands here and perturbs its
			// trajectory. Sealing here — under the shard's serialization,
			// with admission certain except for derivation errors — rather
			// than at pick time keeps a rejected submission from closing a
			// shard no pinned tenant actually runs on. (A derivation failure
			// below still seals; the tenant demonstrably intends to pin here,
			// and will normally retry.)
			e.stealer.Seal(sh.id)
		}
		sh.jobs[j.id] = j
		if e.steal && (sh.running >= e.windowFor(sh) || len(sh.queue) > 0 || e.respawnPending(sh)) {
			sh.queue = append(sh.queue, j)
			j.state.Store(int32(JobQueued))
			if j.migratable {
				e.stealer.NoteQueued(sh.id, 1)
			}
			return
		}
		if reterr = e.enactLocked(sh, j); reterr != nil {
			delete(sh.jobs, j.id)
		}
	})
	if reterr != nil {
		sh.pendingCost.Add(-cost)
		// Return the global ID unless a later submission already claimed the
		// next one (then the gap is unavoidable and harmless).
		e.jobMu.Lock()
		if e.jobSeq == id {
			e.jobSeq = id - 1
		}
		e.jobMu.Unlock()
		// A Submit that slipped past the early check while Close was tearing
		// the backends down fails enactment with a raw transport error (a
		// closed pipe or socket); name the real cause. Close stores the flag
		// before closing any backend, so it is visible here.
		if e.closed.Load() {
			reterr = fmt.Errorf("aimes: Submit on closed environment (shard %d enactment raced Close: %v)", sh.id, reterr)
		}
		return nil, reterr
	}
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				j.Cancel("context: " + ctx.Err().Error())
			case <-j.done:
			}
		}()
	}
	return j, nil
}

// enactLocked enacts a job on sh through the shard's backend, which derives
// the strategy (unless pre-derived), assigns the shard-local namespace from
// its own sequence and its randomness from its own streams — for a migrated
// job this is the re-derivation half of the migration-safe handoff,
// recorded as an "em" MIGRATED trace event. It runs under sh's engine
// serialization with sh current for j and j registered in sh.jobs (trace
// records flow through the sink during the Enact call itself).
func (e *Environment) enactLocked(sh *shardEnv, j *Job) error {
	j.mu.Lock()
	from := j.migratedFrom
	j.mu.Unlock()
	res, err := sh.be.Enact(&backend.Descriptor{
		Key:          j.id,
		MigratedFrom: from,
		Descriptor: core.Descriptor{
			Workload: j.w,
			Strategy: j.cfg.Strategy,
			Config:   j.cfg.StrategyConfig,
			Adaptive: j.cfg.Adaptive,
		},
	})
	if err != nil {
		return err
	}
	sh.running++
	j.mu.Lock()
	j.ns = res.Namespace
	j.strategy = res.Strategy
	// Commit the model's prediction for this placement: the report's TTC
	// clock starts at enactment, so the comparable prediction is the fitted
	// pilot queue wait plus the job's own service time — no backlog term.
	// Scored against the observed TTC when the job completes.
	j.predicted = e.model.Predict(sh.id, float64(j.cost)/1000, 0).Total
	j.enacted = true
	j.handoff = false
	reason := j.cancelReason
	j.mu.Unlock()
	j.state.Store(int32(JobRunning))
	if reason != "" {
		// A cancel raced the admission (requested while the job was queued
		// or mid-handoff): honor it now that there is engine state to tear
		// down. We already hold the engine serialization; the backend
		// delivers the completion through the sink before Cancel returns.
		if cerr := sh.be.Cancel(j.id, reason); cerr != nil {
			j.complete(nil, fmt.Errorf("aimes: shard s%d: canceling during admission: %w", sh.id, cerr))
		}
	}
	return nil
}

// backendDead reports whether sh's backend session has failed (worker
// backends only; a local backend never dies). A dead backend's queued jobs
// are replay candidates for the fleet's respawn path and must not be
// enacted — or failed — against the corpse.
func backendDead(be backend.Backend) bool {
	d, ok := be.(interface{ Dead() bool })
	return ok && d.Dead()
}

// respawnPending reports whether sh's worker is dead with restart budget
// remaining — i.e. the death handler will (or is about to) replace it and
// replay the queue, so admission paths should queue rather than enact.
func (e *Environment) respawnPending(sh *shardEnv) bool {
	return e.pool != nil && backendDead(sh.be) && e.pool.CanRespawn(sh.id)
}

// replayableLocked reports whether a queued job on sh should be left in
// the queue despite a failed step: either the backend was already swapped
// for a live replacement (retry the pump), or it is dead with restart
// budget remaining (the death handler will replay the queue). Runs under
// sh's engine serialization.
func (e *Environment) replayableLocked(sh *shardEnv) bool {
	if e.pool == nil {
		return false
	}
	return !backendDead(sh.be) || e.pool.CanRespawn(sh.id)
}

// admitNextLocked enacts queued jobs while the admission window has room. It
// runs under sh's engine serialization; the admitting flag makes it
// reentrancy-safe, because enacting or failing a job can complete other
// jobs, and completions re-enter here.
func (e *Environment) admitNextLocked(sh *shardEnv) {
	if !e.steal || sh.admitting {
		return
	}
	if backendDead(sh.be) {
		// The queue holds replay candidates: the death handler either
		// re-enacts them on a respawned worker (same shard seed) or fails
		// them when the restart budget is spent. Enacting them here would
		// charge them to the corpse.
		return
	}
	sh.admitting = true
	for sh.running < e.windowFor(sh) && len(sh.queue) > 0 {
		j := sh.queue[0]
		sh.queue[0] = nil
		sh.queue = sh.queue[1:]
		if j.migratable {
			e.stealer.NoteQueued(sh.id, -1)
		}
		if err := e.enactLocked(sh, j); err != nil {
			j.complete(nil, err)
		}
	}
	sh.admitting = false
}

// removeQueued unlinks j from sh's admission queue, reporting whether it was
// there. Runs under sh's engine serialization.
func (sh *shardEnv) removeQueued(j *Job) bool {
	for i, q := range sh.queue {
		if q == j {
			sh.queue = append(sh.queue[:i], sh.queue[i+1:]...)
			return true
		}
	}
	return false
}

// migrationCandidate is the lock-free pre-check for self-migration: is
// there any open shard where the cost model predicts enough benefit to pay
// for the handoff? Waiters of queued jobs poll it every pump iteration, so
// it must not take the submission lock on a balanced system — the model's
// fits and the pending counters are all atomic reads.
func (e *Environment) migrationCandidate(origin *shardEnv, cost int64) bool {
	o := float64(origin.pendingCost.Load()) / 1000
	c := float64(cost) / 1000
	for k, sh := range e.shards {
		if sh == origin || e.stealer.Sealed(k) {
			continue
		}
		if e.model.ShouldMigrate(origin.id, k, c, o, float64(sh.pendingCost.Load())/1000) {
			return true
		}
	}
	return false
}

// migrateJob attempts the migration-safe handoff of a still-queued job to a
// less loaded shard. The handoff is lock-ordered and two-phase: the job is
// popped from its origin's queue under the origin's engine lock, then landed
// on the destination under the destination's — no two shard locks are ever
// held together, and the destination's load is reserved under the submission
// lock so concurrent decisions see each other. The destination's backend
// re-derives namespace and randomness when it enacts (see enactLocked); the
// job itself crosses shards as a pure descriptor, which is why the handoff
// routes through any backend — in-process or worker — unchanged. Sealed
// shards are never chosen. forced relaxes the load-balance margin for
// liveness (a job queued behind a wedged admission window must move or
// fail).
func (e *Environment) migrateJob(j *Job, forced bool) bool {
	if !e.steal || !j.migratable {
		return false
	}
	j.mu.Lock()
	hopped := j.hopped
	j.mu.Unlock()
	if hopped {
		return false // one hop per job: stolen work is not re-stolen
	}
	origin := j.sh.Load()
	if !forced && !e.migrationCandidate(origin, j.cost) {
		return false
	}

	// Decide and reserve under the submission lock. The destination is the
	// shard where the model predicts this job would finish soonest; the
	// benefit gate then demands the predicted gain cover the handoff
	// (model.CostModel.ShouldMigrate), so a candidate with a willing
	// destination can still be vetoed — counted separately from rounds that
	// found no destination at all.
	c := float64(j.cost) / 1000
	e.jobMu.Lock()
	best, bestPred := -1, 0.0
	for k, sh := range e.shards {
		if k == origin.id || e.stealer.Sealed(k) {
			continue
		}
		p := e.model.Predict(k, c, float64(sh.pendingCost.Load())/1000).Total
		if best < 0 || p < bestPred {
			best, bestPred = k, p
		}
	}
	if best < 0 {
		e.jobMu.Unlock()
		return false
	}
	dest := e.shards[best]
	if !forced && !e.model.ShouldMigrate(origin.id, dest.id, c,
		float64(origin.pendingCost.Load())/1000, float64(dest.pendingCost.Load())/1000) {
		e.jobMu.Unlock()
		e.stealer.CountVeto()
		return false
	}
	dest.pendingCost.Add(j.cost) // reserve before releasing the lock
	e.jobMu.Unlock()

	// Phase 1: pop from the origin.
	popped := false
	origin.sync(func() {
		if j.sh.Load() != origin || JobState(j.state.Load()) != JobQueued {
			return
		}
		if !origin.removeQueued(j) {
			return // another stealer or a cancel got here first
		}
		e.stealer.NoteQueued(origin.id, -1)
		origin.pendingCost.Add(-j.cost)
		delete(origin.jobs, j.id)
		j.mu.Lock()
		j.handoff = true
		j.hopped = true
		j.migratedFrom = origin.id
		j.mu.Unlock()
		popped = true
	})
	if !popped {
		dest.pendingCost.Add(-j.cost)
		return false
	}

	// Phase 2: land on the destination.
	dest.sync(func() {
		j.sh.Store(dest)
		dest.jobs[j.id] = j
		j.mu.Lock()
		reason := j.cancelReason
		j.mu.Unlock()
		if reason != "" {
			// Canceled mid-handoff: finish here, on the shard that now
			// accounts the job's cost.
			j.complete(core.CanceledReport(j.w), nil)
			return
		}
		if dest.running < e.windowFor(dest) && len(dest.queue) == 0 && !backendDead(dest.be) {
			if err := e.enactLocked(dest, j); err != nil {
				j.complete(nil, err)
			}
			return
		}
		j.mu.Lock()
		j.handoff = false
		j.mu.Unlock()
		dest.queue = append(dest.queue, j)
		e.stealer.NoteQueued(dest.id, 1)
	})
	e.stealer.CountMigration()
	return true
}

// peekMigratable returns a queued migratable job of sh without popping it,
// or nil. Bounded: it gives up rather than blocking when the shard's lock is
// busy.
func (e *Environment) peekMigratable(sh *shardEnv) *Job {
	if !sh.mu.TryLock() {
		return nil
	}
	defer sh.mu.Unlock()
	for _, q := range sh.queue {
		if !q.migratable {
			continue
		}
		q.mu.Lock()
		ok := !q.hopped && q.cancelReason == ""
		q.mu.Unlock()
		if ok {
			return q
		}
	}
	return nil
}

// stealForward is a departing waiter's parting contribution: one bounded
// attempt to hand the busiest queue's oldest migratable job to a less loaded
// shard (often the waiter's own, freshly idle one). It keeps queues moving
// for jobs whose own waiters have not arrived yet.
func (e *Environment) stealForward() {
	if !e.steal {
		return
	}
	v := e.stealer.Victim(-1)
	if v < 0 {
		return
	}
	if j := e.peekMigratable(e.shards[v]); j != nil {
		e.migrateJob(j, false)
	}
}

// helpPump fires one bounded event batch on the most loaded other shard
// whose lock is free — called by a waiter that found its own shard already
// being pumped. Lock-ordered: the caller holds no shard lock, and helpPump
// only ever TryLocks one. The batch may complete that shard's jobs and admit
// from its queue, exactly as its own waiters would.
func (e *Environment) helpPump(own *shardEnv) {
	best, bestCost := -1, int64(0)
	for k, sh := range e.shards {
		if sh == own {
			continue
		}
		if c := sh.pendingCost.Load(); c > bestCost {
			best, bestCost = k, c
		}
	}
	if best < 0 {
		return
	}
	sh := e.shards[best]
	if !sh.mu.TryLock() {
		return
	}
	fired, drained, err := sh.stepBatch()
	if err == nil && drained && sh.running == 0 && len(sh.queue) > 0 {
		e.admitNextLocked(sh)
	}
	sh.mu.Unlock()
	if fired > 0 {
		e.stealer.CountForeignPump()
	}
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
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.report
	default:
		return nil
	}
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
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.err
	default:
		return nil
	}
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
// environment it blocks while timers fire. On a work-stealing environment
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
	for {
		select {
		case <-j.done:
			e.stealForward()
			j.mu.Lock()
			defer j.mu.Unlock()
			return j.report, j.err
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		sh := j.sh.Load()
		if !sh.steppable {
			select {
			case <-j.done:
				j.mu.Lock()
				defer j.mu.Unlock()
				return j.report, j.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if e.steal && JobState(j.state.Load()) == JobQueued {
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
	e := j.env
	sh.sync(func() {
		if j.sh.Load() != sh || JobState(j.state.Load()) != JobQueued {
			return
		}
		if !sh.removeQueued(j) {
			return // an in-flight handoff or cancel owns the job now
		}
		if j.migratable {
			e.stealer.NoteQueued(sh.id, -1)
		}
		j.complete(nil, fmt.Errorf("aimes: shard s%d drained with the job still queued behind %d wedged jobs and no open shard to migrate to", sh.id, sh.running))
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
		if sh.removeQueued(j) && j.migratable {
			j.env.stealer.NoteQueued(sh.id, -1)
		}
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
	enacted := j.enacted
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
			j.mu.Lock()
			predicted := j.predicted
			j.mu.Unlock()
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
		sh.running--
		j.env.admitNextLocked(sh)
	}
	close(j.done)
	j.stream.End() // after done: a reader that sees the end finds the outcome set
}

// pumpBatch bounds how many events one Wait iteration fires on a local
// shard while holding the shard lock, so concurrent waiters, submitters and
// cancelers of the same shard interleave promptly.
const pumpBatch = 64

// workerPumpBatch is the pump granularity for worker shards, where every
// batch is one wire round trip (encode, two pipe or socket crossings,
// decode) — protocol overhead is per batch, so a larger batch is what
// amortizes it. Coarser interleaving is the price: admission from the
// stealing queue is batch-granular over the wire (the documented worker
// caveat), and one waiter holds the shard lock for a round trip's worth of
// events.
const workerPumpBatch = 512

// pump advances virtual time on behalf of a waiting job: whoever waits,
// steps — and only this job's shard, so waiters on different shards fire
// events truly in parallel. All access to one shard's backend runs under its
// mutex; concurrent waiters of the same shard take turns firing batches, and
// any waiter's step may complete any tenant's job on that shard. It reports
// whether the job is stalled: the engine drained with the (migratable) job
// still queued, so the waiter must migrate it or give up.
func (sh *shardEnv) pump(j *Job) (stalled bool) {
	e := j.env
	if e.steal {
		if !sh.mu.TryLock() {
			// Our shard is already being pumped; contribute a bounded batch
			// to the most loaded shard instead of just blocking.
			e.helpPump(sh)
			sh.mu.Lock()
		}
	} else {
		sh.mu.Lock()
	}
	defer sh.mu.Unlock()
	if !j.ownedByLocked(sh) {
		return false // migrated (or mid-handoff) while we waited for the lock
	}
	if j.finished() {
		return false
	}
	// The non-blocking query half of the pump seam: a quiescent engine is
	// already drained-but-blocked, so the waiter reaches the verdict below —
	// admit, migrate, or fail — without going through a no-op step batch.
	// (The worker backend answers from cached drain state: authoritative
	// when false, "ask" when true.)
	drained := sh.quiet != nil && !sh.quiet.Runnable()
	if !drained {
		var err error
		_, drained, err = sh.stepBatch()
		if err != nil {
			// The backend is gone (a worker crash mid-step). A still-queued
			// job is a pure descriptor: when the fleet can respawn the
			// worker — or already has — leave it queued for replay on the
			// replacement (same shard seed) and let the next Wait iteration
			// pump the fresh backend. Otherwise fail this job with the
			// cause — unlinking it from the admission queue first if it
			// never enacted, so the dead shard's stealable-work count
			// doesn't stay positive forever. The death handler fails the
			// shard's other jobs; their waiters observe it on their own
			// next pump.
			if JobState(j.state.Load()) == JobQueued {
				if e.replayableLocked(sh) {
					return false
				}
				if sh.removeQueued(j) && j.migratable {
					e.stealer.NoteQueued(sh.id, -1)
				}
			}
			j.complete(nil, fmt.Errorf("aimes: shard s%d: %w", sh.id, err))
			return false
		}
	}
	if !drained || j.finished() {
		return false
	}
	if !j.ownedByLocked(sh) {
		// A handoff completed while we were firing events (its phase 1 ran
		// before we took the lock): the drain verdict below would judge the
		// wrong shard. The next Wait iteration pumps the job's new home.
		return false
	}
	// The shard's engine drained with this job incomplete.
	if e.steal && len(sh.queue) > 0 && sh.running == 0 {
		// Quiet engine with a free window: admit queued jobs (ours may be
		// among them) and keep pumping.
		e.admitNextLocked(sh)
		return false
	}
	if JobState(j.state.Load()) == JobQueued {
		// Queued behind a wedged window: the running jobs hold every
		// admission slot but nothing scheduled can make them progress.
		if !j.migratable {
			j.complete(nil, fmt.Errorf("aimes: shard s%d drained with the job still queued behind %d wedged jobs", sh.id, sh.running))
			return false
		}
		return true
	}
	// Nothing scheduled can make this enacted job progress: fail it with the
	// backend's diagnostic state summary. Other live jobs on the shard fail
	// the same way when their waiters observe the drain; new submissions
	// refill the queue first.
	j.complete(nil, sh.be.Incomplete(j.id))
	return false
}

// stepBatch fires up to one batch of events on the shard's backend (the
// shard's own granularity: pumpBatch locally, workerPumpBatch over the
// wire), reporting how many fired and whether the event queue drained, and
// accounts the wall time spent firing toward the shard's
// observed-throughput signal (for a worker shard that includes the wire
// round trip — honest accounting, since that is the real drain rate the
// environment gets from it).
func (sh *shardEnv) stepBatch() (fired int, drained bool, err error) {
	start := time.Now()
	defer func() {
		sh.busyNanos.Add(time.Since(start).Nanoseconds())
		sh.eventsFired.Add(int64(fired))
	}()
	return sh.be.Step(sh.batch)
}
