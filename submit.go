package aimes

import (
	"context"
	"fmt"

	"aimes/internal/backend"
	"aimes/internal/core"
	"aimes/internal/trace"
)

// Submit validates, places and admits a workload on the shared environment,
// returning an asynchronous Job handle immediately. The job is placed on one
// of the environment's simulation shards (cfg.Placement: round-robin by
// default, least-loaded by weighted expected work, or pinned); any number of
// jobs run concurrently, and jobs on different shards execute truly in
// parallel. Without WithWorkStealing the job is enacted synchronously
// (JobRunning on return); with it, a shard whose admission window is full
// queues the job un-enacted (JobQueued) where work stealing may migrate it.
// Each enacted job gets a shard-qualified pilot-ID namespace
// ("s<shard>-j<seq>", shard-local sequence) and its own stream through the
// shard's trace log (Job.Events, Job.Subscribe); within a shard the engine
// interleaves tenants fairly in submission order at each timestep.
//
// ctx gates admission (a canceled context rejects the submission) and bounds
// the job's lifetime: if ctx is canceled while the job runs, the job is
// canceled. Waiting and job lifetime are otherwise independent — pass
// context.Background() for an unbounded job.
//
// The job reads w until it finishes — its units point into w.Tasks — so w
// must not be modified until then. Jobs only read it: one workload may be
// submitted to any number of concurrent jobs.
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
	k, err := e.picker.Pick(cfg.Placement, cfg.Shard, float64(cost)/1000, e.placementLoad())
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
		if reterr = sh.adm.offer(j); reterr != nil {
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

// enact enacts a job on sh through the shard's backend, which derives the
// strategy (unless pre-derived), assigns the shard-local namespace from its
// own sequence and its randomness from its own streams — for a migrated job
// this is the re-derivation half of the migration-safe handoff, recorded as
// an "em" MIGRATED trace event. Only sh's admission gate calls it, under
// sh's engine serialization with sh current for j and j registered in
// sh.jobs (trace records flow through the sink during the Enact call
// itself).
func (e *Environment) enact(sh *shardEnv, j *Job) error {
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
	sh.adm.running++
	j.mu.Lock()
	j.ns = res.Namespace
	j.strategy = res.Strategy
	// Commit the model's prediction for this placement: the report's TTC
	// clock starts at enactment, so the comparable prediction is the fitted
	// pilot queue wait plus the job's own service time — no backlog term.
	// Scored against the observed TTC when the job completes.
	j.predicted = e.model.Predict(sh.id, float64(j.cost)/1000, 0).Total
	j.enacted = true
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
