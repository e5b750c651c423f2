// Package shard implements the placement layer of the sharded execution
// environment: policies that map submitted jobs onto parallel simulation
// shards, and the seed derivation that keeps every shard's randomness
// deterministic yet decorrelated.
//
// A shard is one complete, independent simulation stack — engine, testbed,
// bundle, SAGA session, pilot system — so jobs placed on different shards
// execute with no shared engine lock. The Environment owns the shards; this
// package owns the decision of which shard a job lands on.
package shard

import "fmt"

// Policy selects how jobs map onto shards.
type Policy int

const (
	// RoundRobin cycles submissions across shards in order (the default).
	// With a fixed submission sequence it is deterministic.
	RoundRobin Policy = iota
	// LeastLoaded places each job on the shard with the smallest effective
	// load — pending expected core-seconds weighted by the shard's observed
	// drain rate, not a raw in-flight task count — balancing heterogeneous
	// tenants at the cost of placement depending on completion timing.
	LeastLoaded
	// Pinned places the job on an explicitly chosen shard. Tenants that need
	// cross-job determinism pin: same seed + same per-shard submission order
	// reproduces identical reports regardless of other shards' traffic.
	Pinned
	// Predictive places each job on the shard with the minimum predicted
	// completion time from the analytical cost model (internal/model): fitted
	// queue wait + backlog drain + the job's own service time at the shard's
	// fitted drain rate. With every shard at the cold-start fit this ranks
	// shards exactly like LeastLoaded; once fits diverge it prefers the shard
	// that will actually finish the job soonest, not the one with the least
	// backlog. Requires a PlacementModel (SetModel); falls back to
	// LeastLoaded when none is wired.
	Predictive
)

func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	case Pinned:
		return "pinned"
	case Predictive:
		return "predictive"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// PlacementModel is the seam between the picker and the analytical cost
// model: given a candidate shard and a job's expected demand in
// core-seconds, it returns the predicted completion time (virtual seconds)
// of placing the job there. Implementations must be safe for concurrent
// lock-free reads — Pick runs under the environment's submission lock but
// the model's fits are updated from completion paths on other goroutines.
type PlacementModel interface {
	PredictedCompletion(k int, cost float64) float64
}

// Picker assigns jobs to shards under a policy. It is not safe for
// concurrent use; the environment calls Pick under its submission lock. The
// load callback may read concurrently-updated counters (e.g. atomics).
type Picker struct {
	n     int
	next  int
	model PlacementModel
}

// NewPicker returns a picker over n shards. n must be at least 1.
func NewPicker(n int) *Picker {
	if n < 1 {
		panic(fmt.Sprintf("shard: NewPicker(%d): need at least one shard", n))
	}
	return &Picker{n: n}
}

// SetModel wires the analytical cost model the Predictive policy consults.
// Call it once at environment construction, before any Pick.
func (p *Picker) SetModel(m PlacementModel) { p.model = m }

// Pick returns the shard index for one submission. pinned is the requested
// shard for Pinned; cost is the job's expected demand in core-seconds for
// Predictive; load reports the effective load of a shard for LeastLoaded
// (ties resolve to the lowest index). The caller fixes the load unit — the
// environment reports pending expected core-seconds divided by the shard's
// observed drain rate — and must make the pick-plus-reservation atomic
// under its submission lock: a picker that reads loads which only grow
// after the lock is released lets two concurrent submissions both land on
// the same "least loaded" shard.
func (p *Picker) Pick(policy Policy, pinned int, cost float64, load func(int) float64) (int, error) {
	switch policy {
	case RoundRobin:
		k := p.next
		p.next = (p.next + 1) % p.n
		return k, nil
	case LeastLoaded:
		best, bestLoad := 0, load(0)
		for k := 1; k < p.n; k++ {
			if l := load(k); l < bestLoad {
				best, bestLoad = k, l
			}
		}
		return best, nil
	case Predictive:
		if p.model == nil {
			return p.Pick(LeastLoaded, pinned, cost, load)
		}
		best, bestPred := 0, p.model.PredictedCompletion(0, cost)
		for k := 1; k < p.n; k++ {
			if pr := p.model.PredictedCompletion(k, cost); pr < bestPred {
				best, bestPred = k, pr
			}
		}
		return best, nil
	case Pinned:
		if pinned < 0 || pinned >= p.n {
			return 0, fmt.Errorf("shard: pinned shard %d out of range [0,%d)", pinned, p.n)
		}
		return pinned, nil
	}
	return 0, fmt.Errorf("shard: unknown placement policy %d", int(policy))
}

// seedStride decorrelates per-shard seeds: the 64-bit golden ratio, the
// standard Weyl-sequence increment (as in splitmix64).
const seedStride uint64 = 0x9E3779B97F4A7C15

// Seed derives shard k's base seed from the environment seed. Shard 0 keeps
// the base seed unchanged, so a single-shard environment reproduces the
// pre-sharding trajectories exactly; higher shards take distinct,
// deterministic offsets.
func Seed(base int64, k int) int64 {
	return base + int64(uint64(k)*seedStride)
}

// Namespace builds the shard-qualified job namespace "s<shard>-j<seq>" that
// scopes pilot IDs ("pilot.<resource>.s0-j3-1") and aggregate-trace entities.
// seq is the shard-local job sequence number, so a pinned tenant's namespaces
// — and therefore its pilot IDs and reports — do not depend on how much
// traffic other shards carry.
func Namespace(shard, seq int) string {
	return fmt.Sprintf("s%d-j%d", shard, seq)
}
