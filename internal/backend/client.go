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
// another machine), with the Backend interface proxied across a framed,
// codec-negotiated session. Every response's events are replayed into the
// sink before the originating call returns, so the environment observes the
// same callback ordering as with Local.
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
	// Codec selects the wire codec: CodecJSON pins JSON; "" and CodecBinary
	// both mean binary, and Connect fails against a worker that does not
	// echo it.
	Codec string
}

// Connect dials a shard worker over tr, performs the init exchange
// (including codec negotiation, which always happens in JSON), and returns
// the connected backend. onDeath, when non-nil, runs exactly once if the
// worker dies before Close — whether the transport observes it out of band
// (a child process exiting) or a call finds the connection broken.
func Connect(tr Transport, opt WorkerOptions, cfg Config, sink Sink, onDeath func(error)) (*Worker, error) {
	if !validCodecChoice(opt.Codec) {
		_, err := newCodec(opt.Codec)
		return nil, err
	}
	s := newSession(cfg.Shard, onDeath)
	conn, err := tr.Dial(cfg.Shard, s.peerDied)
	if err != nil {
		return nil, err
	}
	s.attach(conn)
	w := &Worker{shard: cfg.Shard, s: s, sink: sink}

	// Ask for binary unless the caller pinned JSON, which is what the session
	// speaks until told otherwise and so needs neither request nor echo.
	wantBinary := opt.Codec != CodecJSON
	req := &request{Op: opInit, Init: &cfg}
	if wantBinary {
		req.Codec = CodecBinary
	}
	resp, err := w.callTimeout(req, spawnTimeout)
	if err == nil && wantBinary && resp.Codec != CodecBinary {
		err = fmt.Errorf("worker did not accept the %q wire codec (echoed %q)", CodecBinary, resp.Codec)
	}
	if err != nil {
		s.closing.Store(true) // suppress the death callback for a spawn that never worked
		_ = conn.Kill()       // also unblocks a still-pending init read
		return nil, fmt.Errorf("backend: initializing worker for shard %d: %w", cfg.Shard, err)
	}
	if wantBinary {
		s.use(newBinaryCodec())
	}
	return w, nil
}

// call performs one request/response exchange and then dispatches the
// response's events into the sink — after the session releases the wire
// lock, so a sink callback may legally issue a nested call (e.g. a
// completion that admits and enacts the next queued job). An
// operation-level error (Err in the response) is returned alongside the
// response; a transport error has already marked the session dead.
//
// That nested call is why the events are fully decoded before the first one
// is dispatched, and owned by this call: the nested exchange refills the
// session's read buffer, which an outer decode still in progress would be
// borrowing from (binReader.bytes borrows), and decodes its own batch, which
// would overwrite a resp.Events or record slab shared across calls. Decoding
// straight into the sink, or reusing either, hands the rest of the outer
// batch to the sink corrupted.
func (w *Worker) call(req *request) (*response, error) {
	var resp response
	if err := w.s.exchange(req, &resp); err != nil {
		return nil, err
	}
	if req.Op == opStep {
		// Record the drain verdict BEFORE dispatching events: a dispatched
		// completion can admit and enact a queued job (a nested call), which
		// schedules fresh worker events and stores drained=false — and that
		// newer verdict must win over this response's. Step reads the cache,
		// not the response, for exactly this reason.
		w.drained.Store(resp.Drained)
	}
	for i := range resp.Events {
		ev := &resp.Events[i]
		switch ev.Kind {
		case eventTrace:
			if ev.Rec != nil {
				w.sink.JobTrace(ev.Key, ev.NS, ev.Rec.Record())
			}
		case eventDone:
			w.sink.JobDone(ev.Key, ev.Report)
		}
	}
	if resp.Err != "" {
		return &resp, errors.New(resp.Err)
	}
	return &resp, nil
}

// spawnTimeout bounds the init exchange: a worker command that is not
// actually a worker (a wrapper script that hangs, a non-protocol binary
// reading stdin) must fail the spawn, not hang NewEnv forever.
const spawnTimeout = 30 * time.Second

// closeTimeout bounds the orderly-close exchange before the kill fallback.
const closeTimeout = 5 * time.Second

// callTimeout is call with a deadline for exchanges against a worker that
// may not be speaking the protocol at all (init) or may be wedged (close).
// On timeout the pending read stays blocked until the caller kills the
// connection, which unblocks it and lets the call goroutine exit.
func (w *Worker) callTimeout(req *request, d time.Duration) (*response, error) {
	type result struct {
		resp *response
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := w.call(req)
		ch <- result{resp, err}
	}()
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-time.After(d):
		return nil, fmt.Errorf("worker for shard %d did not answer within %v", w.shard, d)
	}
}

// Enact implements Backend.
func (w *Worker) Enact(d *Descriptor) (*Enacted, error) {
	w.drained.Store(false)
	resp, err := w.call(&request{Op: opEnact, Desc: d})
	if err != nil {
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
	resp, err := w.call(&request{Op: opStep, Max: max})
	if err != nil {
		return 0, false, err
	}
	return resp.Fired, w.drained.Load(), nil
}

// Inject implements Backend: the chaos event crosses the wire and is
// scheduled on the worker's engine. The injection schedules future engine
// work, so the drained cache is invalidated like any other mutation.
func (w *Worker) Inject(ev ChaosEvent) error {
	w.drained.Store(false)
	_, err := w.call(&request{Op: opInject, Chaos: &ev})
	return err
}

// Cancel implements Backend.
func (w *Worker) Cancel(key int, reason string) error {
	w.drained.Store(false)
	_, err := w.call(&request{Op: opCancel, Key: key, Reason: reason})
	return err
}

// Incomplete implements Backend.
func (w *Worker) Incomplete(key int) error {
	resp, err := w.call(&request{Op: opIncomplete, Key: key})
	if err != nil {
		return err
	}
	if resp.Diag == "" {
		return fmt.Errorf("backend: worker reported no diagnostic for job %d", key)
	}
	return errors.New(resp.Diag)
}

// Feedback implements Backend.
func (w *Worker) Feedback(r *core.Report) error {
	_, err := w.call(&request{Op: opFeedback, Report: r})
	return err
}

// Derive implements Backend.
func (w *Worker) Derive(wl *skeleton.Workload, cfg core.StrategyConfig) (core.Strategy, error) {
	resp, err := w.call(&request{Op: opDerive, Workload: wl, Config: &cfg})
	if err != nil {
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
	_, _ = w.callTimeout(&request{Op: opClose}, closeTimeout)
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
// prober's probe. It bypasses call: a ping response never carries events
// (the host answers it without touching the engine), so there is nothing to
// dispatch, and the prober goroutine must not replay events outside the
// shard's serialization. Concurrency is safe — the session serializes the
// wire — and a broken connection surfaces here exactly as on any other
// exchange: the session goes dead and the death callback fires once.
func (w *Worker) Ping() error {
	var resp response
	return w.s.exchange(&request{Op: opPing}, &resp)
}
