package sim

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a deterministic random source with named sub-streams. Each component
// of a simulation draws from its own stream so that adding draws in one
// component does not perturb the sequence seen by another — a prerequisite
// for meaningful A/B comparisons between execution strategies.
type RNG struct {
	seed int64
}

// NewRNG returns a root generator for the given seed.
func NewRNG(seed int64) *RNG { return &RNG{seed: seed} }

// Stream returns an independent *rand.Rand derived from the root seed and the
// stream name. The same (seed, name) pair always yields the same sequence.
func (r *RNG) Stream(name string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	derived := r.seed ^ int64(h.Sum64())
	// Avoid the degenerate all-zero state.
	if derived == 0 {
		derived = int64(h.Sum64()) | 1
	}
	return rand.New(rand.NewSource(derived))
}

// Child derives a new RNG namespace, e.g. per repetition or per site.
func (r *RNG) Child(name string) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	const golden = int64(-0x61C8864680B583EB) // 2^64 / phi, as signed
	derived := r.seed*golden + int64(h.Sum64())
	return &RNG{seed: derived}
}
