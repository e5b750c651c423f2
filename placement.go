package aimes

import (
	"math"
	"time"

	"aimes/internal/backend"
)

// ShardLoad is one shard's point-in-time load snapshot (see Loads).
type ShardLoad struct {
	Shard    int     // shard index
	Running  int     // enacted, unfinished jobs
	Queued   int     // submitted jobs awaiting admission (work stealing only)
	Load     float64 // weighted effective load: estimated seconds to drain
	Restarts int     // worker respawns for this shard (0 on the local backend)

	// TraceRetained is how many trace records the shard's log holds now, and
	// TraceDropped how many it evicted to keep the log at the retention (see
	// Recorder); together they count every record the shard appended.
	// TraceDropped is 0 until the shard has recorded more than about a
	// million.
	TraceRetained int64
	TraceDropped  int64

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

	// Wire counts the traffic between this process and the shard's worker
	// since the environment was created, across respawns: round trips,
	// frame bytes each way, and events delivered. Zero on local shards.
	Wire WireStats
}

// WireStats counts a worker shard's wire traffic (see ShardLoad.Wire).
type WireStats = backend.WireStats

// Loads snapshots every shard's queue depth, running-job count and
// weighted effective load — the same seconds-to-drain signal
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
		out[k].Restarts = int(sh.restarts.Load())
		out[k].PredictedCost = e.model.Predict(k, e.model.TypicalCost(k),
			float64(sh.pendingCost.Load())/1000).Total
		out[k].ModelError = e.model.RelError(k)
		out[k].TraceRetained, out[k].TraceDropped = sh.log.Retained(), sh.log.Dropped()
		sh.sync(func() {
			out[k].Running = sh.adm.running
			out[k].Queued = sh.adm.depth()
			out[k].Wire = sh.wire()
		})
	}
	return out
}

// placementModel adapts the environment's cost model to the picker's
// PlacementModel seam: predicted completion of placing a job of the given
// demand (core-seconds) on shard k, given k's live reserved backlog, or +Inf
// when k is shunned. Reads are lock-free (model fits, pendingCost and the
// seals are atomics); Pick calls it under the submission lock, where pending
// reservations are stable.
type placementModel struct {
	env *Environment
}

func (p *placementModel) PredictedCompletion(k int, cost float64) float64 {
	if p.env.shunned(k) {
		return math.Inf(1)
	}
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

// placementLoad is the signal least-loaded placement ranks: loadFunc's,
// snapshotted on first use (round-robin and pinned submissions never pay
// the O(shards) scan), with a shunned shard at +Inf. Call it and the
// function it returns under the submission lock.
func (e *Environment) placementLoad() func(int) float64 {
	var load func(int) float64
	return func(k int) float64 {
		if e.shunned(k) {
			return math.Inf(1)
		}
		if load == nil {
			load = e.loadFunc()
		}
		return load(k)
	}
}

// shunned reports whether load-derived placement passes over shard k: it is
// sealed and some shard is not. A sealed shard hosts a pinned tenant whose
// determinism contract must not depend on load-derived placements landing
// there (and consuming its namespace sequence and randomness); only when
// every shard is sealed does the overall minimum win.
func (e *Environment) shunned(k int) bool {
	if !e.stealer.Sealed(k) {
		return false
	}
	for i := range e.shards {
		if !e.stealer.Sealed(i) {
			return true
		}
	}
	return false
}
