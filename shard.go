package aimes

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aimes/internal/backend"
	"aimes/internal/shard"
	"aimes/internal/sim"
	"aimes/internal/trace"
)

// shardEnv is the environment's frontend for one simulation shard: the
// backend handle plus everything the orchestration layer keeps on its side
// of the seam — the mutex serializing backend access, the admission gate,
// the live-job registry, load accounting, and the shard's trace log. All
// engine access (enactment, stepping, cancellation) runs under mu.
type shardEnv struct {
	id  int
	env *Environment
	be  backend.Backend

	// local is the in-process stack (nil on worker shards), kept for what
	// never crosses the seam: Bundle, NewMonitor and the wall-clock pacer.
	local *backend.Local

	// cfg is the backend configuration the shard was built from — kept so a
	// respawn dials the replacement with the identical per-shard seed.
	// restarts counts successful respawns of this shard's worker.
	cfg      backend.Config
	restarts atomic.Int32

	// log is the shard's part of the environment's trace hub. It has its own
	// lock, so readers stay outside the shard's engine serialization.
	log *trace.Log

	mu sync.Mutex

	// pace holds the engine's clock to the wall clock on a WithRealTime
	// shard; nil on every other, whose waiters pump.
	pace *pacer

	// jobs registers every live job currently owned by the shard (queued or
	// enacted), keyed by the environment-global job ID — the routing table
	// for backend events and the roster a worker-death handler fails.
	// Guarded by the shard's engine serialization, like adm.
	jobs map[int]*Job
	adm  admission

	// batch is the shard's pump granularity: pumpBatch for local shards,
	// workerPumpBatch for worker shards. Set once at construction, read
	// without synchronization.
	batch int

	// Load signals read lock-free by placement and stealing decisions.
	// pendingCost is the expected work submitted and not yet finished;
	// doneCost/busyNanos feed the observed-throughput weighting: cost
	// completed versus wall-clock time this shard's engine spent firing
	// events. Costs are in milli-core-seconds (Workload.CoreSeconds × 1000).
	pendingCost atomic.Int64
	doneCost    atomic.Int64
	doneJobs    atomic.Int64
	busyNanos   atomic.Int64
	eventsFired atomic.Int64

	// lastDoneEvents/lastDoneJobs are eventsFired and doneJobs at the last
	// completion that saw the event counter move — the subtrahends for the
	// per-job event-demand observation fed to the cost model (events fire
	// in batches, so one delta can cover several completions). Guarded by
	// the shard's engine serialization (every completion path runs under
	// it), so they need no atomics.
	lastDoneEvents int64
	lastDoneJobs   int64
}

// newShard builds one shard frontend and its backend. Shard 0 keeps the
// base seed, so a single-shard environment reproduces pre-sharding
// trajectories exactly; higher shards run on decorrelated, deterministic
// seeds (shard.Seed).
func (e *Environment) newShard(k int, o *envOptions) (*shardEnv, error) {
	sh := &shardEnv{
		id:    k,
		env:   e,
		log:   e.trace.add(),
		jobs:  make(map[int]*Job),
		batch: pumpBatch,
		cfg: backend.Config{
			Shard: k,
			Seed:  shard.Seed(o.seed, k),
			Sites: o.sites,
			Pilot: o.pilot,
		},
	}
	sh.adm.sh = sh
	sh.adm.lastWindow.Store(admitWindow)
	sh.adm.peakWindow.Store(admitWindow)
	if e.kind == BackendWorker {
		sh.batch = workerPumpBatch
		if err := e.fleet.dial(sh); err != nil {
			return nil, err
		}
		return sh, nil
	}
	l, err := backend.NewLocal(sh.cfg, sh)
	if err != nil {
		return nil, err
	}
	sh.be, sh.local = l, l
	if o.realTime {
		// From here on (past any warm-up NewLocal ran) the engine's clock
		// follows the wall clock.
		eng := l.Engine()
		sh.pace = &pacer{mu: &sh.mu, eng: eng, base: eng.Now(), start: time.Now(), kick: make(chan struct{}, 1)}
	}
	return sh, nil
}

// sync runs fn serialized with the shard backend's callbacks, under the
// shard mutex. Every entry point that touches a shard's enactment state goes
// through it. On a paced shard fn finds the engine's clock at the wall
// clock, and what it armed or canceled reaches the pacer.
func (sh *shardEnv) sync(fn func()) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.pace.catchUp()
	fn()
	sh.pace.wake()
}

// pacer drives a WithRealTime shard's engine: the same discrete-event queue,
// in the same (when, seq) order, with each event held back until the wall
// clock reaches it. One goroutine per shard, alive only while events are
// pending, does the firing, so jobs complete with nobody waiting. A nil
// *pacer (every other shard) does nothing. mu, the shard's, guards the
// engine and the two flags.
type pacer struct {
	mu  *sync.Mutex
	eng *sim.Sim

	// The engine reads base at wall-clock instant start, and advances with it.
	base  sim.Time
	start time.Time

	// kick wakes run from its sleep: the head of the queue may have changed.
	kick chan struct{}

	running bool // a run goroutine is alive
	closed  bool // Environment.Close: run exits and is not started again
}

func (p *pacer) now() sim.Time { return p.base.Add(time.Since(p.start)) }

// catchUp fires what is due and moves the engine's clock up to the wall
// clock. Runs under mu.
func (p *pacer) catchUp() {
	if p != nil {
		p.eng.AdvanceTo(p.now(), math.MaxInt)
	}
}

// wake makes sure somebody is firing the engine's pending events, and knows
// about the ones just armed. Runs under mu.
func (p *pacer) wake() {
	switch {
	case p == nil || p.closed:
	case p.running:
		p.nudge()
	case p.eng.Pending() > 0:
		p.running = true
		go p.run()
	}
}

// nudge ends run's sleep, now or when it next gets there.
func (p *pacer) nudge() {
	select {
	case p.kick <- struct{}{}:
	default: // one is already waiting
	}
}

// run fires events as they come due, pumpBatch at most per lock hold, and
// sleeps until the next is, or a kick. It returns when the queue drains.
func (p *pacer) run() {
	sleep := time.NewTimer(0)
	defer sleep.Stop()
	for {
		p.mu.Lock()
		fired := p.eng.AdvanceTo(p.now(), pumpBatch)
		next, pending := p.eng.NextAt()
		if p.closed || !pending {
			p.running = false
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		if fired == pumpBatch {
			continue // more may be due
		}
		sleep.Reset(next.Sub(p.now()))
		select {
		case <-sleep.C:
		case <-p.kick:
		}
	}
}

// stop ends the pacer for good.
func (p *pacer) stop() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.nudge()
}

// liveJobs appends the shard's live jobs to dst, in no particular order.
// Runs under the shard's serialization.
func (sh *shardEnv) liveJobs(dst []*Job) []*Job {
	for _, j := range sh.jobs {
		dst = append(dst, j)
	}
	return dst
}

// sortJobs orders jobs by ID — map iteration is not deterministic, and the
// order jobs are waited on or failed in should be.
func sortJobs(jobs []*Job) {
	slices.SortFunc(jobs, func(a, b *Job) int { return a.id - b.id })
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
	e := sh.env
	if !e.steal {
		sh.mu.Lock()
	} else if !sh.mu.TryLock() {
		// Our shard is already being pumped; contribute a bounded batch to
		// the most loaded shard instead of just blocking.
		e.helpPump(sh)
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
	drained := !sh.be.Runnable()
	if !drained {
		var err error
		_, drained, err = sh.stepBatch()
		if err != nil {
			// The backend is gone (a worker crash mid-step). A still-queued
			// job is a pure descriptor: while the fleet can respawn the
			// worker, leave it queued for replay on the replacement (same
			// shard seed) and let the next Wait iteration pump the fresh
			// backend. Otherwise fail this job with the cause, out of the
			// queue first if it never enacted. The death handler fails the
			// shard's other jobs; their waiters observe it on their own next
			// pump.
			if j.State() == JobQueued {
				if e.fleet.parked(sh) {
					return false
				}
				sh.adm.withdraw(j)
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
	if sh.adm.stranded() {
		// Quiet engine with a free window: admit queued jobs (ours may be
		// among them) and keep pumping.
		sh.adm.admit()
		return false
	}
	if j.State() == JobQueued {
		// Queued behind a wedged window: the running jobs hold every
		// admission slot but nothing scheduled can make them progress.
		if !j.migratable {
			j.complete(nil, fmt.Errorf("aimes: shard s%d drained with the job still queued behind %d wedged jobs", sh.id, sh.adm.running))
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
