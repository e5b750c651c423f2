package backend

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
)

// session is the client half of the protocol's session layer: one
// correlated request/response wire over a Conn, a JSON handshake and then
// the binary layout it agreed on. It owns ID assignment and correlation,
// the frame buffers, the dead-session state, the wire counters, and the
// once-only death notification that both in-band failures (a broken write,
// a desync, a corrupt frame) and out-of-band ones (the process transport's
// watcher) funnel into. What it does not know about is Backend semantics —
// request construction and the drain cache live in Worker, one layer up.
type session struct {
	shard int
	conn  Conn
	in    *bufio.Reader
	bin   *binaryCodec

	// mu serializes the wire (encode, write, read, decode) and every use of
	// the codec's intern table. It is never held while a response's events
	// are handed to the sink: a sink callback may legally issue a nested
	// call, or another goroutine a ping, between two chunks.
	mu     sync.Mutex
	nextID uint64
	dead   error
	wbuf   []byte // one frame, header-first; reused across calls
	// frames are read buffers no call owns, each with the storage for the
	// string table of the frame read into it. A call owns the one its
	// response was read into until it has dispatched the last event, so a
	// nested call reads into another; keepFrames of them are kept.
	frames []frameBuf

	roundTrips, sent, received, events atomic.Int64

	closing   atomic.Bool
	onDeath   func(error)
	deathOnce sync.Once
}

// keepFrames is how many read buffers a session keeps between calls: one
// for a call, one for a call nested in its dispatch.
const keepFrames = 2

// frameBuf is a read buffer and its frame's string table.
type frameBuf struct {
	data  []byte
	table []string
}

// WireStats counts one worker session's traffic from the parent's side. The
// session adds to it once per exchange, never per record.
type WireStats struct {
	RoundTrips    int64 // request/response exchanges, the init exchange included
	BytesSent     int64 // frame bytes written, 4-byte headers included
	BytesReceived int64 // frame bytes read, 4-byte headers included
	Events        int64 // events the responses carried: trace records and completions
}

func newSession(shard int, onDeath func(error)) *session {
	return &session{
		shard:   shard,
		bin:     newBinaryCodec(),
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

// handshake performs the init exchange, the session's one JSON round trip:
// it sends cfg and the binary layout, and decodes the worker's answer into
// ack. It is correlated, counted and failed like any other exchange.
func (s *session) handshake(cfg *Config, ack *initResponse) error {
	s.mu.Lock()
	if s.dead != nil {
		err := s.dead
		s.mu.Unlock()
		return err
	}
	s.nextID++
	var frame []byte
	var err error
	if s.wbuf, err = appendJSON(s.wbuf[:4], &initRequest{ID: s.nextID, Op: initOp, Init: cfg, Codec: binaryWire}); err == nil {
		if frame, err = s.roundTrip(nil); err == nil {
			err = decodeJSON(frame, ack)
		}
	}
	if err == nil && ack.ID != s.nextID {
		err = fmt.Errorf("worker response %d for request %d (protocol desync)", ack.ID, s.nextID)
	}
	if err != nil {
		return s.failUnlock(err)
	}
	s.roundTrips.Add(1)
	s.sent.Add(int64(len(s.wbuf)))
	s.received.Add(int64(4 + len(frame)))
	s.mu.Unlock()
	return nil
}

// exchange performs one correlated round trip: assign the next ID, encode
// and write the request as a single frame (one Write — one pipe syscall,
// one TCP segment), read the response and decode its fields, verify
// correlation. The response's events stay in resp.tail, with the frame they
// are read from, until dispatch hands them out. Any failure — transport,
// codec, desync — marks the session dead (see fail).
func (s *session) exchange(req *request, resp *response) error {
	s.mu.Lock()
	if s.dead != nil {
		err := s.dead
		s.mu.Unlock()
		return err
	}
	s.nextID++
	req.ID = s.nextID
	var buf frameBuf
	if n := len(s.frames); n > 0 {
		buf, s.frames = s.frames[n-1], s.frames[:n-1]
	}
	resp.tail.table = buf.table

	frame := buf.data
	var err error
	if s.wbuf, err = s.bin.AppendRequest(s.wbuf[:4], req); err == nil {
		if frame, err = s.roundTrip(frame); err == nil {
			err = s.bin.DecodeResponse(frame, resp)
		}
	}
	if err == nil && resp.ID != req.ID {
		err = fmt.Errorf("worker response %d for request %d (protocol desync)", resp.ID, req.ID)
	}
	if err != nil {
		resp.tail = eventTail{}
		return s.failUnlock(err)
	}
	s.roundTrips.Add(1)
	s.sent.Add(int64(len(s.wbuf)))
	s.received.Add(int64(4 + len(frame)))
	s.events.Add(int64(resp.tail.left))
	resp.tail.frame = frame
	if resp.tail.left == 0 {
		s.putFrame(&resp.tail)
	}
	s.mu.Unlock()
	return nil
}

// roundTrip finishes the request frame in wbuf, writes it and reads the
// response's payload into frame's storage. The caller holds mu.
func (s *session) roundTrip(frame []byte) ([]byte, error) {
	if err := finishFrame(s.wbuf, DefaultMaxFrame); err != nil {
		return frame, err
	}
	if _, err := s.conn.Write(s.wbuf); err != nil {
		return frame, err
	}
	return readFrameInto(s.in, frame, DefaultMaxFrame)
}

// dispatch hands a response's events to sink in wire order, a chunk at a
// time: each chunk is decoded into this call's own array under the wire
// lock, then dispatched without it. The chunk and the frame belong to this
// call alone, so a sink callback's nested call (a completion that admits
// and enacts the next queued job) reads and decodes into storage of its own
// and cannot touch the rest of this batch. No event of a chunk that fails to
// decode is dispatched; the failure kills the session.
func (s *session) dispatch(t *eventTail, sink Sink) error {
	var chunk [eventChunk]event
	for t.left > 0 {
		s.mu.Lock()
		n, err := t.bin.readEvents(t, chunk[:])
		if err != nil || t.left == 0 {
			s.putFrame(t)
		}
		if err != nil {
			return s.failUnlock(err)
		}
		s.mu.Unlock()
		for i := range chunk[:n] {
			ev := &chunk[i]
			switch ev.kind {
			case kindTrace:
				sink.JobTrace(ev.key, ev.ns, ev.rec)
			case kindDone:
				sink.JobDone(ev.key, ev.report)
			}
		}
	}
	return nil
}

// eventChunk is how many events dispatch decodes at a time.
const eventChunk = 64

// putFrame keeps t's read buffer and table storage for a later call, and
// takes them from t. The caller holds mu.
func (s *session) putFrame(t *eventTail) {
	if t.frame != nil && len(s.frames) < keepFrames {
		clear(t.table)
		s.frames = append(s.frames, frameBuf{t.frame[:0], t.table[:0]})
	}
	t.frame, t.table = nil, nil
}

// fail marks the session dead for cause and notifies the death callback,
// returning the sticky error every later call fails fast with.
func (s *session) fail(cause error) error {
	s.mu.Lock()
	return s.failUnlock(cause)
}

// failUnlock is fail for a caller that holds mu, which it releases.
func (s *session) failUnlock(cause error) error {
	err := s.failLocked(cause)
	s.mu.Unlock()
	go s.notifyDeath(err)
	return err
}

// failLocked records cause as the session's death unless it already died,
// and returns the sticky error, which names the package once: a cause the
// package wrote already does. The caller holds mu, and notifies on a fresh
// goroutine once it is released: the caller may hold its shard's lock, and
// the death handler takes it to fail the shard's jobs.
func (s *session) failLocked(cause error) error {
	if s.dead == nil {
		switch {
		case errors.Is(cause, io.EOF) || errors.Is(cause, io.ErrUnexpectedEOF):
			s.dead = fmt.Errorf("backend: worker for shard %d closed its connection", s.shard)
		case strings.HasPrefix(cause.Error(), "backend: "):
			s.dead = cause
		default:
			s.dead = fmt.Errorf("backend: %w", cause)
		}
	}
	return s.dead
}

// stats snapshots the session's wire counters.
func (s *session) stats() WireStats {
	return WireStats{
		RoundTrips:    s.roundTrips.Load(),
		BytesSent:     s.sent.Load(),
		BytesReceived: s.received.Load(),
		Events:        s.events.Load(),
	}
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
