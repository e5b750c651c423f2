package shard

import (
	"fmt"
	"sync/atomic"
)

// Stealer is the coordination layer for cross-shard work stealing: the one
// piece of state that is deliberately shared across shards. It holds only
// atomic counters and placement verdicts — which shards have stealable
// queued jobs, which are sealed against migrants, and how much stealing has
// happened — never any engine or workload state, so the simulation hot path
// stays shard-local. The environment owns the actual job queues and performs
// the two-phase handoff (pop from the origin under its engine lock, then
// land on the destination under its lock, never holding both); the Stealer
// decides and accounts.
type Stealer struct {
	queued       []atomic.Int64 // migratable jobs queued per shard
	sealed       []atomic.Bool  // shards hosting pinned, non-migratable tenants
	migrations   atomic.Int64
	vetoed       atomic.Int64
	foreignPumps atomic.Int64
}

// NewStealer returns a stealer coordinating n shards. n must be at least 1.
func NewStealer(n int) *Stealer {
	if n < 1 {
		panic(fmt.Sprintf("shard: NewStealer(%d): need at least one shard", n))
	}
	return &Stealer{
		queued: make([]atomic.Int64, n),
		sealed: make([]atomic.Bool, n),
	}
}

// NoteQueued adjusts shard k's count of queued migratable jobs. The
// environment calls it under shard k's engine lock whenever a migratable job
// enters or leaves k's admission queue.
func (s *Stealer) NoteQueued(k int, delta int64) { s.queued[k].Add(delta) }

// Queued reports shard k's count of queued migratable jobs.
func (s *Stealer) Queued(k int) int64 { return s.queued[k].Load() }

// Seal permanently closes shard k to incoming migrants. The environment
// seals a shard the moment a pinned, non-migratable job is submitted to it:
// from then on no foreign job lands there, so the pinned tenant's per-shard
// determinism contract survives other shards' migrations. Outgoing
// migratable jobs may still leave a sealed shard.
func (s *Stealer) Seal(k int) { s.sealed[k].Store(true) }

// Sealed reports whether shard k rejects incoming migrants.
func (s *Stealer) Sealed(k int) bool { return s.sealed[k].Load() }

// Victim returns the shard with the most queued migratable jobs, excluding
// self (pass a negative self to exclude nothing). It returns -1 when no
// shard has stealable work.
func (s *Stealer) Victim(self int) int {
	best, bestQueued := -1, int64(0)
	for k := range s.queued {
		if k == self {
			continue
		}
		if q := s.queued[k].Load(); q > bestQueued {
			best, bestQueued = k, q
		}
	}
	return best
}

// CountMigration records one completed job handoff.
func (s *Stealer) CountMigration() { s.migrations.Add(1) }

// Migrations reports how many queued jobs were handed off between shards.
func (s *Stealer) Migrations() int64 { return s.migrations.Load() }

// CountVeto records one migration candidate the migration gate refused
// after its pre-check had found a destination. Distinct from rounds that
// simply found no candidate.
func (s *Stealer) CountVeto() { s.vetoed.Add(1) }

// Vetoes reports how many migration candidates the gate refused.
func (s *Stealer) Vetoes() int64 { return s.vetoed.Load() }

// CountForeignPump records one bounded event batch a waiter fired on a shard
// other than its own job's.
func (s *Stealer) CountForeignPump() { s.foreignPumps.Add(1) }

// ForeignPumps reports how many foreign event batches waiters fired.
func (s *Stealer) ForeignPumps() int64 { return s.foreignPumps.Load() }
