package backend

import (
	"errors"
	"fmt"
)

// ErrRestartsExhausted is returned by Respawn when the shard has consumed
// its restart budget. The environment degrades to the pre-fleet contract:
// the dead shard's remaining jobs fail, contained but terminal.
var ErrRestartsExhausted = errors.New("backend: worker restart budget exhausted")

// CanRespawn reports whether shard still has restart budget: a dead
// worker's queued descriptors are worth holding for replay only while this
// is true.
func (p *Pool) CanRespawn(shard int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	ps := p.shards[shard]
	return ps != nil && ps.restarts < p.cfg.MaxRestarts
}

// Respawn replaces shard's dead worker with a fresh one dialed from the
// shard's Config — critically, the same per-shard seed, so the replacement
// builds a bit-identical engine stack and a descriptor replayed onto it as
// the first enactment behaves exactly as a first submission on a fresh
// shard. The caller sets cfg.JobSeq to the jobs the shard enacted, so the
// replacement's namespaces continue the dead worker's sequence. The
// shard's home endpoint is tried first; if it refuses (the whole
// host died, not just one worker), placement fails over to the next
// non-cordoned endpoint, which is what lets a two-host fleet survive losing
// one host entirely.
//
// Respawn consumes one unit of the shard's MaxRestarts budget and fails
// with ErrRestartsExhausted once it is spent (MaxRestarts 0 never
// respawns). It must be called only after the dead worker's death callback
// has fired — the caller is that callback — and onDeath wires the
// replacement's eventual death back into the same recovery path.
func (p *Pool) Respawn(shard int, cfg Config, sink Sink, onDeath func(error)) (*Worker, error) {
	p.workerDied(shard)

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("backend: pool closed")
	}
	ps := p.shards[shard]
	if ps == nil {
		p.mu.Unlock()
		return nil, fmt.Errorf("backend: shard %d was never placed", shard)
	}
	if ps.restarts >= p.cfg.MaxRestarts {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w (shard %d used %d of %d)", ErrRestartsExhausted, shard, ps.restarts, p.cfg.MaxRestarts)
	}
	preferred := ps.ep
	p.mu.Unlock()

	w, _, err := p.place(shard, preferred, cfg, sink, onDeath, true)
	return w, err
}
