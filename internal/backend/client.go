package backend

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"aimes/internal/core"
	"aimes/internal/skeleton"
)

// Worker is the out-of-process execution backend: one shard hosted behind a
// Transport (a spawned child process over stdio, or a TCP worker host on
// another machine), with the Backend interface proxied across a framed
// session whose binary layout is agreed at init. Every response's events
// are replayed into the sink before the originating call returns, so the
// environment observes the same callback ordering as with Local.
//
// A dead worker is surfaced, never waited on: an in-flight call fails when
// the connection breaks, every later call fails fast, and the death
// callback passed at connect time runs once so the environment can fail the
// shard's jobs instead of hanging their waiters.
type Worker struct {
	shard int
	s     *session
	sink  Sink

	drained atomic.Bool // conservative Runnable cache: true only right after a drained Step
}

var _ Backend = (*Worker)(nil)

// WorkerOptions tunes the session Connect builds; the zero value is the
// production default.
type WorkerOptions struct {
	// Codec is the wire codec: "" or CodecBinary, which mean the same.
	//
	// Deprecated: binary is the only codec, so there is nothing to choose.
	// The field stays for the benchmark's callers until ROADMAP item 1 A2
	// removes it with them.
	Codec string
}

// Connect dials a shard worker over tr, performs the handshake (one JSON
// init frame each way, agreeing on the binary layout every later frame is
// written in), and returns the connected backend. A worker that refuses the
// init or does not echo the layout's versioned name fails it. onDeath, when
// non-nil, runs exactly once if the worker dies before Close — whether the
// transport observes it out of band (a child process exiting) or a call
// finds the connection broken.
func Connect(tr Transport, opt WorkerOptions, cfg Config, sink Sink, onDeath func(error)) (*Worker, error) {
	if err := CheckCodec(opt.Codec); err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	s := newSession(cfg.Shard, onDeath)
	conn, err := tr.Dial(cfg.Shard, s.peerDied)
	if err != nil {
		return nil, err
	}
	s.attach(conn)
	w := &Worker{shard: cfg.Shard, s: s, sink: sink}

	var ack initResponse
	err = w.within(spawnTimeout, func() error { return s.handshake(&cfg, &ack) })
	switch {
	case err != nil:
	case ack.Err != "":
		err = errors.New(ack.Err)
	case ack.Codec != binaryWire:
		err = fmt.Errorf("worker did not accept the %q wire codec (echoed %q)", binaryWire, ack.Codec)
	}
	if err != nil {
		s.closing.Store(true) // suppress the death callback for a spawn that never worked
		_ = conn.Kill()       // also unblocks a still-pending init read
		return nil, fmt.Errorf("backend: initializing worker for shard %d: %w", cfg.Shard, err)
	}
	return w, nil
}

// call performs one request/response exchange into resp and then hands the
// response's events to the sink, in order, before it returns — outside the
// wire lock, so a sink callback may legally issue a nested call (e.g. a
// completion that admits and enacts the next queued job). The session
// decodes them a chunk at a time into this call's own storage, from a frame
// this call owns until its last event is out (session.dispatch): a nested
// call reads and decodes elsewhere, and the parent allocates nothing per
// batch or per record. An operation-level error (Err in the response) is
// returned once the events are dispatched; a transport or decode error has
// already marked the session dead.
func (w *Worker) call(req *request, resp *response) error {
	if err := w.s.exchange(req, resp); err != nil {
		return err
	}
	if req.Op == opStep {
		// Record the drain verdict BEFORE dispatching events: a dispatched
		// completion can admit and enact a queued job (a nested call), which
		// schedules fresh worker events and stores drained=false — and that
		// newer verdict must win over this response's. Step reads the cache,
		// not the response, for exactly this reason.
		w.drained.Store(resp.Drained)
	}
	if err := w.s.dispatch(&resp.tail, w.sink); err != nil {
		return err
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// spawnTimeout bounds the handshake: a worker command that is not
// actually a worker (a wrapper script that hangs, a non-protocol binary
// reading stdin) must fail the spawn, not hang NewEnv forever.
const spawnTimeout = 30 * time.Second

// closeTimeout bounds the orderly-close exchange before the kill fallback.
const closeTimeout = 5 * time.Second

// within runs exchange with a deadline, for a worker that may not be
// speaking the protocol at all (the handshake) or may be wedged (close).
// On timeout the pending read stays blocked until the caller kills the
// connection, which unblocks it and lets the exchange's goroutine exit, so
// a caller reads what the exchange decoded only when within did not time
// out.
func (w *Worker) within(d time.Duration, exchange func() error) error {
	ch := make(chan error, 1)
	go func() { ch <- exchange() }()
	select {
	case err := <-ch:
		return err
	case <-time.After(d):
		return fmt.Errorf("worker for shard %d did not answer within %v", w.shard, d)
	}
}

// Enact implements Backend.
func (w *Worker) Enact(d *Descriptor) (*Enacted, error) {
	w.drained.Store(false)
	var resp response
	if err := w.call(&request{Op: opEnact, Desc: d}, &resp); err != nil {
		return nil, err
	}
	if resp.Enacted == nil {
		return nil, fmt.Errorf("backend: worker enacted without a result")
	}
	return resp.Enacted, nil
}

// Step implements Backend. The drain verdict comes from the cache rather
// than the response: event dispatch inside the call can enact a freshly
// admitted job (scheduling new worker events), and the response's verdict
// predates that — returning it would let a pump judge a runnable engine
// drained and fail a just-enacted job as incomplete.
func (w *Worker) Step(max int) (int, bool, error) {
	var resp response
	if err := w.call(&request{Op: opStep, Max: max}, &resp); err != nil {
		return 0, false, err
	}
	return resp.Fired, w.drained.Load(), nil
}

// Inject implements Backend: the chaos event crosses the wire and is
// scheduled on the worker's engine. The injection schedules future engine
// work, so the drained cache is invalidated like any other mutation.
func (w *Worker) Inject(ev ChaosEvent) error {
	w.drained.Store(false)
	var resp response
	return w.call(&request{Op: opInject, Chaos: &ev}, &resp)
}

// Cancel implements Backend.
func (w *Worker) Cancel(key int, reason string) error {
	w.drained.Store(false)
	var resp response
	return w.call(&request{Op: opCancel, Key: key, Reason: reason}, &resp)
}

// Incomplete implements Backend.
func (w *Worker) Incomplete(key int) error {
	var resp response
	if err := w.call(&request{Op: opIncomplete, Key: key}, &resp); err != nil {
		return err
	}
	if resp.Diag == "" {
		return fmt.Errorf("backend: worker reported no diagnostic for job %d", key)
	}
	return errors.New(resp.Diag)
}

// Derive implements Backend.
func (w *Worker) Derive(wl *skeleton.Workload, cfg core.StrategyConfig) (core.Strategy, error) {
	var resp response
	if err := w.call(&request{Op: opDerive, Workload: wl, Config: &cfg}, &resp); err != nil {
		return core.Strategy{}, err
	}
	if resp.Strategy == nil {
		return core.Strategy{}, fmt.Errorf("backend: worker derived without a strategy")
	}
	return *resp.Strategy, nil
}

// Runnable implements Backend from cached drain state: false only when
// the last wire operation was a Step that drained the engine, so a false
// verdict is always authoritative while true merely means "ask".
func (w *Worker) Runnable() bool { return !w.drained.Load() }

// Close implements Backend: an orderly shutdown (close frame, bounded
// wait), then the transport's teardown — which for a child process reaps
// it, killing a lingerer. A transport failure here is not an error — the
// worker being already dead was surfaced when it happened (death callback,
// per-job errors), and the teardown guarantees the peer is reclaimed
// either way.
func (w *Worker) Close() error {
	w.s.closing.Store(true)
	_ = w.within(closeTimeout, func() error {
		var resp response
		return w.call(&request{Op: opClose}, &resp)
	})
	_ = w.s.conn.CloseWrite()
	return w.s.conn.Close()
}

// Kill severs the worker's connection immediately — the chaos hook behind
// Environment.KillWorker and the crash tests. A killed child process trips
// the transport watcher and the death callback runs exactly as for a
// spontaneous crash; a killed TCP connection surfaces on the shard's next
// wire operation, which notifies the same callback in-band.
func (w *Worker) Kill() error { return w.s.conn.Kill() }

// Dead implements Backend: whether the worker's session has failed. Once
// true it stays true — a dead session never recovers; the fleet layer
// replaces the whole Worker. The admission and migration paths consult it so queued descriptors
// are parked for replay instead of being enacted into a broken wire.
func (w *Worker) Dead() bool { return w.s.deadErr() != nil }

// Ping performs one liveness round trip over the session — the health
// prober's probe. It bypasses dispatch: the host answers a ping without
// touching the engine, so a reply carrying events or an operation's result
// is a protocol violation, and it kills the session like a corrupt frame
// would, instead of being decoded and dropped; the prober goroutine must
// not replay events outside the shard's serialization anyway. Concurrency
// is safe — the session serializes the wire — and a broken connection
// surfaces here exactly as on any other exchange: the session goes dead and
// the death callback fires once.
func (w *Worker) Ping() error {
	var resp response
	if err := w.s.exchange(&request{Op: opPing}, &resp); err != nil {
		return err
	}
	if resp.tail.left > 0 || resp.Enacted != nil || resp.Strategy != nil {
		return w.s.fail(fmt.Errorf("worker for shard %d answered a ping with events or a result (protocol violation)", w.shard))
	}
	return nil
}

// WireStats snapshots the session's wire counters: round trips, frame bytes
// each way and events delivered since Connect.
func (w *Worker) WireStats() WireStats { return w.s.stats() }
