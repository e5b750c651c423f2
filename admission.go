package aimes

import (
	"slices"
	"sync/atomic"
)

// admitWindow is the minimum admission window: how many jobs a shard keeps
// enacted at once when work stealing is on, before the adaptive sizing has
// any history. Everything beyond the window queues un-enacted and stays
// migratable. Small enough that a skewed burst leaves most of its jobs
// stealable, large enough that a shard always has concurrent tenants to
// interleave. Sealed shards pin their window here permanently.
const admitWindow = 4

// maxAdmitWindow caps the adaptive window, bounding how much work admission
// can strand on one shard before stealing sees it.
const maxAdmitWindow = 64

// admission is one shard's admission gate: the queue of submitted jobs
// awaiting enactment — still pure descriptors, which is what makes them
// migratable — the count of enacted, unfinished ones, and the window between
// the two. Every path that moves a job into, out of, or past the queue goes
// through it: Submit and the migration landing offer, cancel, stall failure,
// the migration's pop and a terminal worker death withdraw, a completion is
// done, and a respawn's replay is hold, release. So the queue and the
// stealer's count of stealable jobs cannot drift apart, and "may this shard
// enact now?" is open and nothing else. Without work stealing the window is
// unbounded and the queue stays empty. All of it is guarded by the shard's
// engine serialization.
type admission struct {
	sh *shardEnv

	queue []*Job // FIFO
	// running counts enacted, unfinished jobs: Environment.enact takes the
	// slot the moment the backend accepts the job, done gives it back.
	running int
	held    bool // shut by hold until release, whatever the window says
	passing bool // an admit pass is on the stack (completions re-enter)

	// The most recent and the largest window chosen, for StealStats.
	lastWindow, peakWindow atomic.Int32
}

// window returns the shard's current admission window, sized by the cost
// model from the shard's fitted per-job event demand (model.CostModel.Window):
// keep roughly two pump batches' worth of drainable jobs enacted. Heavy
// tenants burn far more than a batch of events per job and stay at the
// minimum; a flood of tiny tenants retires several jobs per batch and would
// trickle through a constant-size window, under-filling the shard between
// admissions, so the window grows — capped by the work actually present
// (running + queued) and by maxAdmitWindow. Every model input is a
// virtual-event quantity (events fired between completions), never a wall
// clock, so the chosen window at any engine point is deterministic and the
// per-shard determinism contract survives adaptation; sealed shards (pinned,
// non-migratable tenants) still pin the constant minimum as an extra
// predictability guarantee — their window never consults the model at all.
func (a *admission) window() int {
	e, w := a.sh.env, admitWindow
	if !e.stealer.Sealed(a.sh.id) {
		w = e.model.Window(a.sh.id, a.sh.batch, admitWindow, maxAdmitWindow, a.running+len(a.queue))
	}
	a.lastWindow.Store(int32(w))
	if int32(w) > a.peakWindow.Load() {
		a.peakWindow.Store(int32(w))
	}
	return w
}

// open reports whether the shard may enact a job now: always without work
// stealing; with it, when nobody holds the gate, the window has room, and
// the queue is not parked behind a dead worker awaiting its respawn.
func (a *admission) open() bool {
	e := a.sh.env
	if !e.steal {
		return true
	}
	return !a.held && a.running < a.window() && !e.fleet.parked(a.sh)
}

// offer admits a newcomer — a submission, or a migrant landing: enacted at
// once when the gate is open and nobody is queued ahead of it, queued
// otherwise. The error is the enactment's.
func (a *admission) offer(j *Job) error {
	if a.open() && len(a.queue) == 0 {
		return a.sh.env.enact(a.sh, j)
	}
	a.queue = append(a.queue, j)
	a.noteQueued(j, 1)
	j.state.Store(int32(JobQueued))
	return nil
}

// withdraw unlinks a still-queued job, reporting whether it was there
// (false means an admit pass, a stealer or a cancel got to it first).
func (a *admission) withdraw(j *Job) bool {
	i := slices.Index(a.queue, j)
	if i < 0 {
		return false
	}
	a.queue = slices.Delete(a.queue, i, i+1)
	a.noteQueued(j, -1)
	return true
}

// noteQueued keeps the stealer's per-shard count of stealable jobs in step
// with the queue.
func (a *admission) noteQueued(j *Job, delta int64) {
	if j.migratable {
		a.sh.env.stealer.NoteQueued(a.sh.id, delta)
	}
}

// admit enacts queued jobs, oldest first, while the gate is open. Enacting
// or failing a job can complete other jobs, and completions re-enter here:
// the pass already on the stack fills the slots they free.
func (a *admission) admit() {
	if a.passing {
		return
	}
	a.passing = true
	for a.open() && len(a.queue) > 0 {
		j := a.queue[0]
		a.withdraw(j)
		if err := a.sh.env.enact(a.sh, j); err != nil {
			j.complete(nil, err)
		}
	}
	a.passing = false
}

// done gives an ended job's slot back and admits into it.
func (a *admission) done() {
	a.running--
	a.admit()
}

// hold shuts the gate until release: newcomers queue and nothing queued is
// enacted, whatever the window says. The fleet's death handler holds it
// while it fails the dead worker's enacted jobs, whose completions would
// otherwise admit the replay candidates against the corpse.
func (a *admission) hold() { a.held = true }

// release reopens the gate and admits whatever queued up behind it — after
// a respawn, the replay.
func (a *admission) release() {
	a.held = false
	a.admit()
}

// depth is the number of queued jobs.
func (a *admission) depth() int { return len(a.queue) }

// stranded reports queued jobs with nothing enacted: no completion is coming
// to admit them, so a pump that finds the engine drained admits before it
// judges anyone stalled.
func (a *admission) stranded() bool { return a.running == 0 && len(a.queue) > 0 }

// stealable returns the oldest queued job work stealing may still move — not
// yet hopped, not canceled — or nil.
func (a *admission) stealable() *Job {
	for _, q := range a.queue {
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
