package backend

import "time"

// startProber runs shard's liveness loop: one goroutine per live worker,
// one ping per HealthInterval. A failed ping reports to the session's fail
// inside the exchange itself, like any call, so a death it decides runs
// the worker's death callback with the same verdict — the prober's job is
// only to make sure a silent peer (a hung host, a half-open TCP
// connection) is discovered between calls instead of on the next one.
//
// The goroutine exits when its generation is superseded (the shard was
// respawned or the pool closed — gen bumps on every placement change) or
// when its own probe kills the session. Pings ride the ordinary session
// wire lock, so a probe never interleaves bytes with a live call.
func (p *Pool) startProber(shard, gen int, w *Worker) {
	if p.cfg.HealthInterval <= 0 {
		return
	}
	go func() {
		t := time.NewTicker(p.cfg.HealthInterval)
		defer t.Stop()
		for range t.C {
			if !p.proberLive(shard, gen) {
				return
			}
			if err := w.Ping(); err != nil {
				p.noteProbeFailure(shard, gen)
				return
			}
		}
	}()
}

// proberLive reports whether the (shard, gen) prober is still current.
func (p *Pool) proberLive(shard, gen int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	ps := p.shards[shard]
	return ps != nil && ps.gen == gen && ps.w != nil
}

// noteProbeFailure charges a failed probe to the endpoint hosting the
// (still-current) generation and marks it unhealthy. The session death the
// failed ping caused reaches the environment through the worker's death
// callback, not through here.
func (p *Pool) noteProbeFailure(shard, gen int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ps := p.shards[shard]
	if ps == nil || ps.gen != gen {
		return
	}
	st := p.eps[ps.ep]
	st.probeFailures++
	st.unhealthy = true
}
