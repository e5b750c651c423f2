package backend

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// session is the client half of the protocol's session layer: one
// correlated request/response wire over a Conn, in whatever codec the init
// exchange negotiated. It owns ID assignment and correlation, the pooled
// frame buffers, the dead-session state, and the once-only death
// notification that both in-band failures (a broken write, a desync, a
// corrupt frame) and out-of-band ones (the process transport's watcher)
// funnel into. What it does not know about is Backend semantics — request
// construction, drain caching and event replay live in Worker, one layer
// up.
type session struct {
	shard int
	conn  Conn
	in    *bufio.Reader
	cod   codec

	// mu serializes the wire (encode, write, read, decode). It is never
	// held while the caller dispatches a response's events: a sink callback
	// may legally issue a nested call.
	mu     sync.Mutex
	nextID uint64
	dead   error
	wbuf   []byte // one frame, header-first; reused across calls
	rbuf   []byte // response payload; reused across calls

	closing   atomic.Bool
	onDeath   func(error)
	deathOnce sync.Once
}

func newSession(shard int, onDeath func(error)) *session {
	return &session{
		shard:   shard,
		cod:     jsonCodec{},
		onDeath: onDeath,
		wbuf:    make([]byte, 0, 4096),
	}
}

// attach binds the dialed connection; it must run before the first
// exchange. (The session exists first because the transport's watcher needs
// peerDied at dial time.)
func (s *session) attach(c Conn) {
	s.conn = c
	s.in = bufio.NewReaderSize(c, 1<<16)
}

// peerDied is the transport's out-of-band death callback (a child process
// exiting). It runs on the watcher goroutine, so notifying synchronously is
// safe — no caller lock is held there.
func (s *session) peerDied(cause error) {
	if s.closing.Load() {
		return
	}
	s.mu.Lock()
	if s.dead == nil {
		s.dead = cause
	}
	s.mu.Unlock()
	s.notifyDeath(cause)
}

// notifyDeath runs the death callback at most once, and not at all during
// an orderly close — a clean shutdown never fails jobs.
func (s *session) notifyDeath(cause error) {
	s.deathOnce.Do(func() {
		if s.onDeath != nil && !s.closing.Load() {
			s.onDeath(cause)
		}
	})
}

// exchange performs one correlated round trip: assign the next ID, encode
// and write the request as a single frame (one Write — one pipe syscall,
// one TCP segment), read and decode the response, verify correlation. Any
// failure — transport, codec, desync — marks the session dead, fails every
// later call fast, and notifies the death callback so the environment fails
// the shard's jobs instead of hanging their waiters; transports with their
// own watcher converge on the same once-only notification.
func (s *session) exchange(req *request, resp *response) error {
	s.mu.Lock()
	if s.dead != nil {
		err := s.dead
		s.mu.Unlock()
		return err
	}
	s.nextID++
	req.ID = s.nextID

	var err error
	s.wbuf = s.wbuf[:4]
	if s.wbuf, err = s.cod.AppendRequest(s.wbuf, req); err == nil {
		if err = finishFrame(s.wbuf, DefaultMaxFrame); err == nil {
			if _, err = s.conn.Write(s.wbuf); err == nil {
				if s.rbuf, err = readFrameInto(s.in, s.rbuf, DefaultMaxFrame); err == nil {
					err = s.cod.DecodeResponse(s.rbuf, resp)
				}
			}
		}
	}
	if err == nil && resp.ID != req.ID {
		err = fmt.Errorf("worker response %d for request %d (protocol desync)", resp.ID, req.ID)
	}
	if err == nil {
		s.mu.Unlock()
		return nil
	}
	if s.dead == nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			err = fmt.Errorf("worker for shard %d closed its connection", s.shard)
		}
		s.dead = fmt.Errorf("backend: %w", err)
	}
	err = s.dead
	s.mu.Unlock()
	// Notify on a fresh goroutine: the caller may hold its shard's lock,
	// and the death handler takes it to fail the shard's jobs.
	go s.notifyDeath(err)
	return err
}

// deadErr reports the sticky dead-session error, nil while the wire is
// healthy. It is the fleet layer's cheap liveness witness: a non-nil result
// means the death callback has run (or is about to), so callers can route
// work away from this session without risking another doomed exchange.
func (s *session) deadErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead
}

// use switches the session's codec — once, between the init exchange and
// the first regular call, on the name the worker echoed.
func (s *session) use(c codec) {
	s.mu.Lock()
	s.cod = c
	s.mu.Unlock()
}
