package aimes

import "time"

// ShardLoad is one shard's point-in-time load snapshot (see Loads).
type ShardLoad struct {
	Shard    int     // shard index
	Running  int     // enacted, unfinished jobs
	Queued   int     // submitted jobs awaiting admission (work stealing only)
	Load     float64 // weighted effective load: estimated seconds to drain
	Window   int     // current admission window (0 without work stealing)
	Restarts int     // worker respawns for this shard (0 on the local backend)

	// TraceDropped counts the shard's trace records evicted to keep its log
	// at the retention (see Recorder); 0 until the shard has recorded more
	// than about a million.
	TraceDropped int64

	// PredictedCost is the cost model's predicted completion (virtual
	// seconds) of placing one more typical job — the shard's fitted mean
	// demand — on this shard right now: fitted queue wait + current backlog
	// drain + service time. The signal predictive placement ranks, made
	// comparable across shards.
	PredictedCost float64
	// ModelError is the shard's EWMA of relative prediction error
	// (|predicted − observed| / observed per completed job); 0 until the
	// shard has scored a prediction.
	ModelError float64
}

// Loads snapshots every shard's queue depth, running-job count, admission
// window and weighted effective load — the same seconds-to-drain signal
// least-loaded placement and work stealing consult. The snapshot is not a
// single atomic cut across shards; it is meant for monitoring and metrics
// exposition, not coordination.
func (e *Environment) Loads() []ShardLoad {
	e.jobMu.Lock()
	load := e.loadFunc()
	out := make([]ShardLoad, len(e.shards))
	for k := range e.shards {
		out[k].Shard = k
		out[k].Load = load(k)
	}
	e.jobMu.Unlock()
	for k, sh := range e.shards {
		if e.steal {
			out[k].Window = int(sh.adm.lastWindow.Load())
		}
		out[k].Restarts = int(sh.restarts.Load())
		out[k].PredictedCost = e.model.Predict(k, e.model.TypicalCost(k),
			float64(sh.pendingCost.Load())/1000).Total
		out[k].ModelError = e.model.RelError(k)
		out[k].TraceDropped = sh.log.Dropped()
		sh.sync(func() {
			out[k].Running = sh.adm.running
			out[k].Queued = sh.adm.depth()
		})
	}
	return out
}

// placementModel adapts the environment's cost model to the picker's
// PlacementModel seam: predicted completion of placing a job of the given
// demand (core-seconds) on shard k, given k's live reserved backlog. Reads
// are lock-free (model fits and pendingCost are atomics); Pick calls it
// under the submission lock, where pending reservations are stable.
type placementModel struct {
	env *Environment
}

func (p *placementModel) PredictedCompletion(k int, cost float64) float64 {
	return p.env.model.Predict(k, cost,
		float64(p.env.shards[k].pendingCost.Load())/1000).Total
}

// loadFunc snapshots the weighted-load signal placement and migration run
// on: a shard's pending expected work (milli-core-seconds, reserved at pick
// time under the submission lock) divided by its observed drain rate, i.e.
// an estimate of seconds-to-drain. Shards without enough history borrow the
// mean rate of those with some, so a fresh shard competes fairly. The
// signal is backend-agnostic: every input is frontend accounting (costs
// reserved at submit, wall time spent in Step calls), so local and worker
// shards compare on the same scale — a worker's wire overhead shows up as a
// lower observed drain rate, exactly as it should.
func (e *Environment) loadFunc() func(int) float64 {
	rates := make([]float64, len(e.shards))
	var sum float64
	known := 0
	for k, sh := range e.shards {
		busy, done := sh.busyNanos.Load(), sh.doneCost.Load()
		if busy >= int64(time.Millisecond) && done > 0 {
			rates[k] = float64(done) / (float64(busy) / float64(time.Second))
			sum += rates[k]
			known++
		}
	}
	fallback := 1.0
	if known > 0 {
		fallback = sum / float64(known)
	}
	for k := range rates {
		if rates[k] == 0 {
			rates[k] = fallback
		}
	}
	return func(k int) float64 {
		return float64(e.shards[k].pendingCost.Load()) / rates[k]
	}
}

// leastLoadedShard snapshots the weighted loads under the submission lock
// and returns the least loaded shard index, preferring unsealed shards: a
// sealed shard hosts a pinned tenant whose determinism contract must not
// depend on load-derived placements landing there (and consuming its
// namespace sequence and randomness). Only when every shard is sealed does
// the overall minimum win.
func (e *Environment) leastLoadedShard() int {
	e.jobMu.Lock()
	defer e.jobMu.Unlock()
	load := e.loadFunc()
	best, bestLoad := -1, 0.0
	anyBest, anyLoad := 0, load(0)
	for k := 0; k < len(e.shards); k++ {
		l := load(k)
		if l < anyLoad {
			anyBest, anyLoad = k, l
		}
		if e.stealer.Sealed(k) {
			continue
		}
		if best < 0 || l < bestLoad {
			best, bestLoad = k, l
		}
	}
	if best < 0 {
		return anyBest
	}
	return best
}
