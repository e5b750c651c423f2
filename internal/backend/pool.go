package backend

import (
	"fmt"
	"sync"
	"time"
)

// Endpoint is one place the fleet can host shard workers: a TCP worker host
// (`aimes-worker serve`) when Addr is set, or a spawned child process per
// shard when it is not. A pool mixes both kinds freely — a laptop-local
// process endpoint beside two remote hosts is a legal fleet.
type Endpoint struct {
	// Name identifies the endpoint in stats, metrics and cordon calls.
	// Empty defaults to Addr, or to the command's first element.
	Name string
	// Addr is a TCP worker host ("host:port"). Empty means process mode.
	Addr string
	// Argv is the worker command for process mode (ignored when Addr is
	// set). Each shard placed here spawns one child from it.
	Argv []string
	// Secret is the TCP handshake secret (ignored in process mode).
	Secret string
}

func (ep Endpoint) name() string {
	if ep.Name != "" {
		return ep.Name
	}
	if ep.Addr != "" {
		return ep.Addr
	}
	if len(ep.Argv) > 0 {
		return ep.Argv[0]
	}
	return "worker"
}

// transport builds the dialable form of the endpoint.
func (ep Endpoint) transport() Transport {
	if ep.Addr != "" {
		return &TCPTransport{Addr: ep.Addr, Secret: ep.Secret}
	}
	return &ProcessTransport{Argv: ep.Argv}
}

// PoolConfig configures a worker fleet.
type PoolConfig struct {
	// Endpoints are the places shards may run. Shard k starts on endpoint
	// k mod len(Endpoints); respawn and drain may move it elsewhere.
	Endpoints []Endpoint
	// MaxRestarts bounds respawns per shard. 0 disables respawn — a dead
	// worker terminally fails its shard's jobs, the pre-fleet behavior.
	MaxRestarts int
	// HealthInterval is the liveness-probe period per live worker.
	// 0 disables probing (death still surfaces in-band on the next call,
	// and out of band for process workers).
	HealthInterval time.Duration
}

// Pool is the worker fleet manager: it owns every live Worker session for
// an environment, places shards on endpoints, probes liveness, respawns
// dead workers within a per-shard restart budget, and cordons or drains
// endpoints. The pool serializes its own bookkeeping; it never holds its
// lock across a dial (slow) or a worker call.
type Pool struct {
	cfg PoolConfig

	mu       sync.Mutex
	closed   bool
	shards   map[int]*poolShard
	eps      []*endpointState
	restarts int // total respawns placed, monotonic
}

// poolShard is one shard's fleet state.
type poolShard struct {
	ep       int     // endpoint index currently hosting the shard
	w        *Worker // live session, nil after its death was recorded
	restarts int     // respawns consumed
	gen      int     // bumped per placement; stale probers check it and exit
}

// endpointState is one endpoint's fleet state.
type endpointState struct {
	Endpoint
	cordoned      bool
	unhealthy     bool // the most recent dial or probe against it failed
	probeFailures int  // cumulative failed liveness probes
	restarts      int  // respawns placed here
	shards        int  // live shards hosted
}

// EndpointStatus is one endpoint's externally visible fleet state.
type EndpointStatus struct {
	Name          string
	Addr          string // empty for process endpoints
	Cordoned      bool
	Unhealthy     bool
	Shards        int // live shards currently hosted
	Restarts      int // respawns placed on this endpoint
	ProbeFailures int // cumulative failed liveness probes
}

// PoolStats is a point-in-time fleet snapshot.
type PoolStats struct {
	Restarts  int // total respawns placed across the fleet
	Endpoints []EndpointStatus
}

// NewPool builds a fleet manager. Endpoints must be non-empty.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, fmt.Errorf("backend: a worker pool needs at least one endpoint")
	}
	p := &Pool{cfg: cfg, shards: make(map[int]*poolShard)}
	for _, ep := range cfg.Endpoints {
		p.eps = append(p.eps, &endpointState{Endpoint: ep})
	}
	return p, nil
}

// Dial places shard on its home endpoint (shard mod fleet size), failing
// over to the next non-cordoned endpoint when a dial fails, and starts its
// liveness prober. onDeath runs once if the placed worker later dies.
func (p *Pool) Dial(shard int, cfg Config, sink Sink, onDeath func(error)) (*Worker, error) {
	w, _, err := p.place(shard, shard%len(p.eps), cfg, sink, onDeath, false)
	return w, err
}

// candidates returns the endpoint indexes to try, preferred first, skipping
// cordoned endpoints. When every endpoint is cordoned nothing is returned.
func (p *Pool) candidates(preferred int) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx := make([]int, 0, len(p.eps))
	for i := range p.eps {
		k := (preferred + i) % len(p.eps)
		if !p.eps[k].cordoned {
			idx = append(idx, k)
		}
	}
	return idx
}

// place dials shard onto the first reachable candidate endpoint and records
// the placement. respawn placements consume the shard's restart budget and
// the fleet restart counters.
func (p *Pool) place(shard, preferred int, cfg Config, sink Sink, onDeath func(error), respawn bool) (*Worker, int, error) {
	cands := p.candidates(preferred)
	if len(cands) == 0 {
		return nil, 0, fmt.Errorf("backend: no uncordoned endpoint to host shard %d", shard)
	}
	var firstErr error
	for _, k := range cands {
		ep := p.cfg.Endpoints[k]
		w, err := Connect(ep.transport(), WorkerOptions{}, cfg, sink, onDeath)
		if err != nil {
			p.mu.Lock()
			p.eps[k].unhealthy = true
			p.mu.Unlock()
			if firstErr == nil {
				firstErr = fmt.Errorf("endpoint %s: %w", ep.name(), err)
			}
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = w.Kill()
			return nil, 0, fmt.Errorf("backend: pool closed while placing shard %d", shard)
		}
		ps := p.shards[shard]
		if ps == nil {
			ps = &poolShard{}
			p.shards[shard] = ps
		} else if ps.w != nil {
			p.eps[ps.ep].shards--
		}
		ps.ep, ps.w = k, w
		ps.gen++
		gen := ps.gen
		st := p.eps[k]
		st.shards++
		st.unhealthy = false
		if respawn {
			ps.restarts++
			st.restarts++
			p.restarts++
		}
		p.mu.Unlock()
		p.startProber(shard, gen, w)
		return w, k, nil
	}
	return nil, 0, fmt.Errorf("backend: every endpoint refused shard %d: %w", shard, firstErr)
}

// workerDied records that shard's current session is gone (its death
// callback has fired). The prober generation is invalidated so a racing
// probe goroutine exits instead of pinging a corpse.
func (p *Pool) workerDied(shard int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ps := p.shards[shard]
	if ps == nil || ps.w == nil {
		return
	}
	ps.w = nil
	ps.gen++
	p.eps[ps.ep].shards--
}

// Kill severs shard's live session — the chaos hook. Returns nil when the
// shard has no live worker (already dead or never placed).
func (p *Pool) Kill(shard int) error {
	p.mu.Lock()
	ps := p.shards[shard]
	var w *Worker
	if ps != nil {
		w = ps.w
	}
	p.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.Kill()
}

// Cordon marks the named endpoint as ineligible for placements: existing
// shards keep running there, but dials, respawns and failovers skip it.
func (p *Pool) Cordon(name string) error { return p.setCordon(name, true) }

// Uncordon reverses Cordon.
func (p *Pool) Uncordon(name string) error { return p.setCordon(name, false) }

func (p *Pool) setCordon(name string, v bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, st := range p.eps {
		if st.name() == name {
			st.cordoned = v
			return nil
		}
	}
	return fmt.Errorf("backend: no endpoint named %q in the pool", name)
}

// Drain cordons the named endpoint and severs every live session it hosts.
// Each severed worker's death callback fires as for a crash: queued
// (never-enacted) descriptors replay on a respawned worker elsewhere within
// the restart budget, while enacted jobs fail — their engine state lives
// only in the drained worker and cannot be reconstructed.
func (p *Pool) Drain(name string) error {
	if err := p.Cordon(name); err != nil {
		return err
	}
	p.mu.Lock()
	var victims []*Worker
	for _, ps := range p.shards {
		if ps.w != nil && p.eps[ps.ep].name() == name {
			victims = append(victims, ps.w)
		}
	}
	p.mu.Unlock()
	for _, w := range victims {
		_ = w.Kill()
	}
	return nil
}

// Stats snapshots the fleet.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := PoolStats{Restarts: p.restarts}
	for _, st := range p.eps {
		s.Endpoints = append(s.Endpoints, EndpointStatus{
			Name:          st.name(),
			Addr:          st.Addr,
			Cordoned:      st.cordoned,
			Unhealthy:     st.unhealthy,
			Shards:        st.shards,
			Restarts:      st.restarts,
			ProbeFailures: st.probeFailures,
		})
	}
	return s
}

// Close shuts the fleet down: probers stop, every live session gets an
// orderly close, and any placement racing Close is killed when it lands.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	var live []*Worker
	for _, ps := range p.shards {
		if ps.w != nil {
			live = append(live, ps.w)
			ps.w = nil
			ps.gen++
		}
	}
	p.mu.Unlock()
	var first error
	for _, w := range live {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
