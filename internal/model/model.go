// Package model is the analytical twin of the sharded scheduler: a
// per-shard cost model that predicts, from a job's expected demand and the
// shard's live backlog, how long the job will take to complete there — so
// placement, work stealing, and admission-window sizing can reason about
// execution instead of only reacting to it.
//
// The model follows the closed-form cost vocabulary of pilot systems (P*: A
// Model of Pilot-Abstractions): a job's predicted completion decomposes into
// the pilot queue wait, the backlog drain ahead of it, and its own service
// time at the shard's effective drain rate. Every parameter is fitted online
// from completed-job observations — an exponentially weighted moving average
// per shard — and seeded from static per-backend defaults, so a shard with
// zero completions is still rankable against its warmed-up peers.
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
	// Backend tags the seed defaults: "local" or "worker" (see DefaultSeed).
	Backend string
	// Alpha is the EWMA gain in (0, 1]; 0 selects DefaultAlpha.
	Alpha float64
	// Seed overrides the cold-start fit; the zero value selects
	// DefaultSeed(Backend).
	Seed Seed
}

// DefaultAlpha is the EWMA gain: each observation contributes a quarter of
// the new estimate, so the fit follows workload shifts within a handful of
// completions without whipsawing on a single outlier.
const DefaultAlpha = 0.25

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
	events atomic.Uint64 // engine events retired per completed job
	cost   atomic.Uint64 // mean observed job demand, core-seconds
	relErr atomic.Uint64 // EWMA of |predicted-observed|/observed per job
}

func (f *fit) load(a *atomic.Uint64) float64     { return math.Float64frombits(a.Load()) }
func (f *fit) store(a *atomic.Uint64, v float64) { a.Store(math.Float64bits(v)) }

// ewma folds one observation into an estimate.
func ewma(old, obs, alpha float64) float64 { return (1-alpha)*old + alpha*obs }

// CostModel is the analytical twin: per-shard EWMA fits plus the prediction
// arithmetic. Observe for one shard must be externally serialized (the
// environment calls it under the shard's engine serialization); everything
// else is safe for concurrent lock-free use.
type CostModel struct {
	fits  []fit
	alpha float64
	seed  Seed
}

// New builds a model over cfg.Shards shards, every fit at the cold-start
// seed.
func New(cfg Config) *CostModel {
	if cfg.Shards < 1 {
		panic(fmt.Sprintf("model: New with %d shards: need at least one", cfg.Shards))
	}
	alpha := cfg.Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	seed := cfg.Seed
	if seed == (Seed{}) {
		seed = DefaultSeed(cfg.Backend)
	}
	m := &CostModel{fits: make([]fit, cfg.Shards), alpha: alpha, seed: seed}
	for k := range m.fits {
		f := &m.fits[k]
		f.store(&f.rate, seed.Rate)
		f.store(&f.wait, seed.Wait)
		f.store(&f.events, seed.EventsPerJob)
		f.store(&f.cost, seed.Cost)
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
	// Events is how many engine events the shard fired since the last
	// completion that saw the counter move — the event-demand signal
	// feeding admission-window sizing. Shards fire events in batches, so
	// several jobs can complete before the counter moves: EventsJobs says
	// how many completions the delta covers (minimum 1), and the fit folds
	// the per-job value once per covered job. 0 skips the events fit.
	Events int64
	// EventsJobs is the number of completions the Events delta spans.
	EventsJobs int64
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
		f.store(&f.wait, ewma(f.load(&f.wait), o.Wait, m.alpha))
		if exec := o.TTC - o.Wait; exec > 0 {
			f.store(&f.rate, ewma(f.load(&f.rate), cost/exec, m.alpha))
		}
	}
	if o.Events > 0 {
		jobs := o.EventsJobs
		if jobs < 1 {
			jobs = 1
		}
		// Fold the per-job value once per covered completion:
		// 1-(1-α)^jobs is exactly jobs consecutive EWMA steps.
		a := 1 - math.Pow(1-m.alpha, float64(jobs))
		f.store(&f.events, ewma(f.load(&f.events), float64(o.Events)/float64(jobs), a))
	}
	f.store(&f.cost, ewma(f.load(&f.cost), cost, m.alpha))
	if o.Predicted > 0 {
		rel := math.Abs(o.Predicted-o.TTC) / o.TTC
		if f.n.Load() == 0 {
			f.store(&f.relErr, rel)
		} else {
			f.store(&f.relErr, ewma(f.load(&f.relErr), rel, m.alpha))
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

// MigrationGain returns the predicted benefit of moving a queued job of the
// given demand from origin to dest: predicted completion if it stays (its
// cost is already inside originPending, so the stay term is the origin's
// full backlog drain) minus predicted completion if it moves (the dest
// backlog plus the job, plus the seeded handoff delay). Positive means
// moving pays; the caller decides how much gain justifies a handoff
// (ShouldMigrate applies the standard self-limiting margin).
func (m *CostModel) MigrationGain(origin, dest int, cost, originPending, destPending float64) float64 {
	stay := m.Predict(origin, 0, originPending)
	move := m.Predict(dest, cost, destPending)
	return (stay.Wait + stay.Queue) - (move.Total + m.seed.MigrationDelay)
}

// ShouldMigrate reports whether the model predicts enough benefit to pay for
// handing a queued job of the given demand from origin to dest: the gain
// must cover at least one service time of the job on the destination, so the
// destination remains strictly better off even after receiving it. With
// identical fits on both shards this reduces exactly to the classic
// pending-cost rule (dest+cost <= origin-cost) — the reactive scheduler is
// the model's degenerate case — and once the fits diverge, a faster shard
// is allowed to absorb more than a slower one. originPending includes the
// job itself (its cost is reserved on its current shard); destPending does
// not.
func (m *CostModel) ShouldMigrate(origin, dest int, cost, originPending, destPending float64) bool {
	if cost < minCost {
		cost = minCost
	}
	return m.MigrationGain(origin, dest, cost, originPending, destPending) >= m.Predict(dest, cost, 0).Service
}

// EventsPerJob returns shard k's fitted engine-event demand per job — how
// many events the shard retires between consecutive completions.
func (m *CostModel) EventsPerJob(k int) float64 {
	if k < 0 || k >= len(m.fits) {
		return m.seed.EventsPerJob
	}
	f := &m.fits[k]
	if e := f.load(&f.events); e >= 1 {
		return e
	}
	return 1
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
		return m.seed.Cost
	}
	return m.fits[k].load(&m.fits[k].cost)
}

// ShardModel is one shard's fit snapshot (see Snapshot).
type ShardModel struct {
	Shard        int
	Observations int64
	Rate         float64 // core-seconds per virtual second
	Wait         float64 // virtual seconds
	EventsPerJob float64
	Cost         float64 // mean observed demand, core-seconds
	RelError     float64
}

// Snapshot returns every shard's current fit.
func (m *CostModel) Snapshot() []ShardModel {
	out := make([]ShardModel, len(m.fits))
	for k := range m.fits {
		f := &m.fits[k]
		out[k] = ShardModel{
			Shard:        k,
			Observations: f.n.Load(),
			Rate:         f.load(&f.rate),
			Wait:         f.load(&f.wait),
			EventsPerJob: f.load(&f.events),
			Cost:         f.load(&f.cost),
			RelError:     f.load(&f.relErr),
		}
	}
	return out
}
