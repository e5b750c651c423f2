package aimes

import "aimes/internal/core"

// StealStats counts cross-shard work-stealing activity since the
// environment was created (zero values without WithWorkStealing).
type StealStats struct {
	// Migrations counts queued jobs handed off to another shard before
	// enactment.
	Migrations int64
	// Vetoed counts migration candidates the cost model's benefit gate
	// refused: a queued job had a willing destination, but the predicted
	// gain did not cover the handoff. Distinct from rounds that found no
	// candidate at all — a climbing Vetoed with flat Migrations means
	// imbalance exists but moving would not pay.
	Vetoed int64
	// ForeignPumps counts bounded event batches waiters fired on a shard
	// other than their own job's, while their own shard's lock was held by
	// another waiter.
	ForeignPumps int64
	// Windows is each shard's most recently chosen admission window — the
	// adaptive bound on enacted-at-once jobs, sized from the shard's
	// observed drain rate and queue depth (admitWindow floor; sealed shards
	// stay at the floor). Nil without WithWorkStealing.
	Windows []int
	// PeakWindows is each shard's largest window chosen so far. Nil without
	// WithWorkStealing.
	PeakWindows []int
}

// StealStats reports the environment's work-stealing activity.
func (e *Environment) StealStats() StealStats {
	s := StealStats{
		Migrations:   e.stealer.Migrations(),
		Vetoed:       e.stealer.Vetoes(),
		ForeignPumps: e.stealer.ForeignPumps(),
	}
	if e.steal {
		for _, sh := range e.shards {
			s.Windows = append(s.Windows, int(sh.adm.lastWindow.Load()))
			s.PeakWindows = append(s.PeakWindows, int(sh.adm.peakWindow.Load()))
		}
	}
	return s
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
// re-derives namespace and randomness when it enacts (see enact); the
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
		if j.sh.Load() != origin || j.State() != JobQueued || !origin.adm.withdraw(j) {
			return // enacted, or another stealer or a cancel got here first
		}
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

	// Phase 2: land on the destination, which takes the job like any other
	// newcomer — enacted if its gate is open, queued (and stealable) if not.
	dest.sync(func() {
		j.sh.Store(dest)
		dest.jobs[j.id] = j
		j.mu.Lock()
		reason := j.cancelReason
		j.handoff = false
		j.mu.Unlock()
		if reason != "" {
			// Canceled mid-handoff: finish here, on the shard that now
			// accounts the job's cost.
			j.complete(core.CanceledReport(j.w), nil)
		} else if err := dest.adm.offer(j); err != nil {
			j.complete(nil, err)
		}
	})
	e.stealer.CountMigration()
	return true
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
	// Bounded: give up rather than block when the victim's lock is busy.
	sh := e.shards[v]
	if !sh.mu.TryLock() {
		return
	}
	j := sh.adm.stealable()
	sh.mu.Unlock()
	if j != nil {
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
	if err == nil && drained && sh.adm.stranded() {
		sh.adm.admit()
	}
	sh.mu.Unlock()
	if fired > 0 {
		e.stealer.CountForeignPump()
	}
}
