// Package model is the analytical twin of the sharded scheduler: a
// per-shard cost model that predicts, from a job's expected demand and the
// shard's live backlog, how long the job will take to complete there. It has
// one decision consumer, predictive placement (shard.Predictive); every
// job's prediction is also kept and scored against its report
// (Job.PredictedTTC, ShardLoad.PredictedCost and ModelError, the scenario
// `model` assertion, cmd/model-check). Admission and work stealing are
// reactive and do not read it: an ablation on the benchmark's
// tenants-burst workload found neither a model-sized admission window nor
// a model-gated migration faster than a constant window and the pending-cost
// rule.
//
// The model follows the closed-form cost vocabulary of pilot systems (P*: A
// Model of Pilot-Abstractions): a job's predicted completion decomposes into
// the pilot queue wait, the backlog drain ahead of it, and its own service
// time at the shard's effective drain rate. Every parameter is fitted online
// from completed-job observations — an exponentially weighted moving average
// per shard — and seeded from static defaults, so a shard with zero
// completions is still rankable against its warmed-up peers.
//
// All quantities live in virtual time (the simulation's clock), which makes
// the twin backend-agnostic: a local shard and a worker shard running the
// same trajectory fit the same parameters. Fidelity against the simulator is
// enforced in CI (cmd/model-check, TestModelFidelity) via the committed
// MODEL_baseline.json threshold, so the twin cannot silently drift from the
// scheduler it mirrors.
package model

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Config parameterizes New.
type Config struct {
	// Shards is the shard count the model covers (at least 1).
	Shards int
	// Backend is ignored: the cold-start fit no longer depends on the
	// backend kind. It stays while the benchmark names it.
	Backend string
}

// BackendLocal is the local backend's Config.Backend tag (ignored; see
// Config.Backend).
const BackendLocal = "local"

// alpha is the EWMA gain: each observation contributes a quarter of the new
// estimate, so the fit follows workload shifts within a handful of
// completions without whipsawing on a single outlier.
const alpha = 0.25

// The cold-start fit every shard holds before it completes a job. It is
// deliberately conservative: it makes a cold shard rankable against warm
// peers (it competes on backlog, not on an invented speed advantage), and
// with every shard at it, predicted completions rank shards purely by
// pending cost — least-loaded placement.
const (
	// seedRate is the assumed drain rate, core-seconds per virtual second.
	seedRate = 1.0
	// seedWait mirrors the simulator's 30-minute median site wait.
	seedWait = 1800
	// seedCost is a typical job's demand in core-seconds (the 64-unit ×
	// 15-minute reference workload at 1 core per unit).
	seedCost = 64 * 15 * 60
)

// minCost floors job demand (core-seconds) so zero-cost descriptors cannot
// produce zero service times or division blowups.
const minCost = 1e-3

// fit is one shard's parameter set. Writers (Observe) for a given shard run
// under that shard's engine serialization; readers are lock-free atomic
// loads from any goroutine, so placement pre-checks never contend on a lock.
type fit struct {
	n      atomic.Int64  // completed-job observations
	rate   atomic.Uint64 // effective drain rate, core-seconds per virtual second (Float64bits)
	wait   atomic.Uint64 // queue wait before first activation, virtual seconds
	cost   atomic.Uint64 // mean observed job demand, core-seconds
	relErr atomic.Uint64 // EWMA of |predicted-observed|/observed per job
}

func (f *fit) load(a *atomic.Uint64) float64     { return math.Float64frombits(a.Load()) }
func (f *fit) store(a *atomic.Uint64, v float64) { a.Store(math.Float64bits(v)) }

// ewma folds one observation into an estimate.
func ewma(old, obs float64) float64 { return (1-alpha)*old + alpha*obs }

// CostModel is the analytical twin: per-shard EWMA fits plus the prediction
// arithmetic. Observe for one shard must be externally serialized (the
// environment calls it under the shard's engine serialization); everything
// else is safe for concurrent lock-free use.
type CostModel struct {
	fits []fit
}

// New builds a model over cfg.Shards shards, every fit at the cold-start
// seed.
func New(cfg Config) *CostModel {
	if cfg.Shards < 1 {
		panic(fmt.Sprintf("model: New with %d shards: need at least one", cfg.Shards))
	}
	m := &CostModel{fits: make([]fit, cfg.Shards)}
	for k := range m.fits {
		f := &m.fits[k]
		f.store(&f.rate, seedRate)
		f.store(&f.wait, seedWait)
		f.store(&f.cost, seedCost)
	}
	return m
}

// Observation is one completed job's measured outcome, fed back into the
// shard's fit. All times are virtual seconds.
type Observation struct {
	// Shard is the shard the job completed on.
	Shard int
	// Cost is the job's expected demand in core-seconds (Σ duration × cores
	// over the workload) — the same a-priori signal placement reserved.
	Cost float64
	// Wait is the observed queue wait (Tw: enactment to first pilot
	// activation).
	Wait float64
	// TTC is the observed time-to-completion (enactment start to last unit
	// terminal). Wait is contained in it.
	TTC float64
	// Events and EventsJobs are ignored: they fed the admission-window
	// sizing the model no longer does. They stay while the benchmark
	// names them.
	Events, EventsJobs int64
	// Predicted is the completion time the model predicted when the job was
	// enacted (0 when no prediction was recorded); it feeds the
	// prediction-error gauge, never the fits.
	Predicted float64
}

// Observe folds one completed job into its shard's fit. Calls for the same
// shard must be serialized by the caller; calls for different shards may
// race freely (fits are independent).
func (m *CostModel) Observe(o Observation) {
	if o.Shard < 0 || o.Shard >= len(m.fits) || o.TTC <= 0 {
		return
	}
	f := &m.fits[o.Shard]
	cost := o.Cost
	if cost < minCost {
		cost = minCost
	}
	if o.Wait >= 0 && o.Wait <= o.TTC {
		f.store(&f.wait, ewma(f.load(&f.wait), o.Wait))
		if exec := o.TTC - o.Wait; exec > 0 {
			f.store(&f.rate, ewma(f.load(&f.rate), cost/exec))
		}
	}
	f.store(&f.cost, ewma(f.load(&f.cost), cost))
	if o.Predicted > 0 {
		rel := math.Abs(o.Predicted-o.TTC) / o.TTC
		if f.n.Load() == 0 {
			f.store(&f.relErr, rel)
		} else {
			f.store(&f.relErr, ewma(f.load(&f.relErr), rel))
		}
	}
	f.n.Add(1)
}

// Prediction is one placement's predicted completion, decomposed into the
// terms of the pilot cost vocabulary. All values are virtual seconds.
type Prediction struct {
	// Wait is the fitted queue wait before the job's first pilot activates.
	Wait float64
	// Queue is the drain time of the backlog ahead of the job (the pending
	// work the shard has already accepted).
	Queue float64
	// Service is the job's own demand at the shard's effective drain rate.
	Service float64
	// Total is Wait + Queue + Service.
	Total float64
}

// Predict returns the predicted completion of placing a job of the given
// demand (core-seconds) on shard k with the given backlog (pending
// core-seconds already accepted, excluding this job). Out-of-range shards
// predict +Inf, so they always rank last.
func (m *CostModel) Predict(k int, cost, pending float64) Prediction {
	if k < 0 || k >= len(m.fits) {
		return Prediction{Wait: math.Inf(1), Total: math.Inf(1)}
	}
	f := &m.fits[k]
	rate := f.load(&f.rate)
	if rate < minCost {
		rate = minCost
	}
	if cost < minCost {
		cost = minCost
	}
	if pending < 0 {
		pending = 0
	}
	p := Prediction{
		Wait:    f.load(&f.wait),
		Queue:   pending / rate,
		Service: cost / rate,
	}
	p.Total = p.Wait + p.Queue + p.Service
	return p
}

// RelError returns shard k's EWMA of relative prediction error
// (|predicted − observed| / observed per completed job), or 0 before any
// prediction has been scored.
func (m *CostModel) RelError(k int) float64 {
	if k < 0 || k >= len(m.fits) {
		return 0
	}
	f := &m.fits[k]
	return f.load(&f.relErr)
}

// TypicalCost returns shard k's fitted mean job demand (core-seconds) — the
// seed value until the shard completes a job. Monitoring uses it to render a
// comparable "predicted cost of the next typical job" per shard.
func (m *CostModel) TypicalCost(k int) float64 {
	if k < 0 || k >= len(m.fits) {
		return seedCost
	}
	return m.fits[k].load(&m.fits[k].cost)
}
