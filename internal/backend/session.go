package backend

import (
	"bufio"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"aimes/internal/core"
	"aimes/internal/trace"
)

// session is the client half of the protocol's session layer: one
// correlated request/response wire over a Conn, a JSON handshake and then
// the binary layout it agreed on. It owns ID assignment and correlation,
// the frame buffers, the wire counters, and the death verdict that in-band
// failures (a broken write, a desync, a corrupt frame, a failed probe) and
// the process transport's watcher all report through fail. Backend
// semantics — request construction, the drain cache — live in Worker.
type session struct {
	shard int
	conn  Conn
	in    *bufio.Reader
	bin   *binaryCodec

	// mu serializes the wire (encode, write, read, decode) and every use of
	// the codec's intern table. It is never held while a response's events
	// are handed to the sink: a sink callback may legally issue a nested
	// call, or another goroutine a ping, between two chunks.
	mu      sync.Mutex
	nextID  uint64
	dead    error // the death verdict, set once by fail
	onDeath func(error)
	wbuf    []byte // one frame, header-first; reused across calls
	// frames are read buffers no call owns, each with the storage for the
	// string table of the frame read into it. A call owns the one its
	// response was read into until it has dispatched the last event, so a
	// nested call reads into another; keepFrames of them are kept.
	frames []frameBuf

	roundTrips, sent, received, events atomic.Int64

	closing atomic.Bool // an orderly Close is under way: its death is no one's news
}

// ErrWorkerLost is the kind of a dead worker session's verdict. A lost
// connection reads "backend: worker for shard N lost" and unwraps to its
// first reporter's transport detail; a violation keeps its own text.
var ErrWorkerLost = errors.New("backend: worker lost")

// lostError is the verdict on a session whose connection failed.
type lostError struct {
	shard  int
	detail error
}

func (e *lostError) Error() string        { return fmt.Sprintf("backend: worker for shard %d lost", e.shard) }
func (e *lostError) Unwrap() error        { return e.detail }
func (e *lostError) Is(target error) bool { return target == ErrWorkerLost }

// keepFrames is how many read buffers a session keeps between calls: one
// for a call, one for a call nested in its dispatch.
const keepFrames = 2

// frameBuf is a read buffer and its frame's string table.
type frameBuf struct {
	data  []byte
	table []trace.Entity
}

// WireStats counts one worker session's traffic from the parent's side. The
// session adds to it once per exchange, never per record.
type WireStats struct {
	RoundTrips    int64 // request/response exchanges, the init exchange included
	BytesSent     int64 // frame bytes written, 4-byte headers included
	BytesReceived int64 // frame bytes read, 4-byte headers included
	Events        int64 // events the responses carried: trace records and completions
}

func newSession(shard int) *session {
	return &session{
		shard: shard,
		bin:   newBinaryCodec(),
		wbuf:  make([]byte, 0, 4096),
	}
}

// attach binds the dialed connection; it must run before the first
// exchange. (The session exists first because the transport's watcher
// reports to its fail at dial time.)
func (s *session) attach(c Conn) {
	s.conn = c
	s.in = bufio.NewReaderSize(c, 1<<16)
}

// arm sets the death callback once the handshake has succeeded: a spawn
// that never connected dies without one. A session already dead returns
// its verdict.
func (s *session) arm(onDeath func(error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead == nil {
		s.onDeath = onDeath
	}
	return s.dead
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
		err = violation{fmt.Errorf("backend: worker response %d for request %d (protocol desync)", ack.ID, s.nextID)}
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
		err = violation{fmt.Errorf("backend: worker response %d for request %d (protocol desync)", resp.ID, req.ID)}
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
// decode is dispatched; the failure kills the session. A core.LogSink is
// asked for a job's stream once per run of its records, which go there
// with their entities as intern table entries.
func (s *session) dispatch(t *eventTail, sink Sink) error {
	var chunk [eventChunk]event
	logs, _ := sink.(core.LogSink)
	var (
		key    int
		bound  bool // key's log and stream are looked up
		log    *trace.Log
		stream *trace.Stream
	)
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
			switch {
			case ev.kind == kindDone:
				bound = false // the job may be gone, and a nested call may have enacted another
				sink.JobDone(ev.key, ev.report)
			case logs == nil:
				sink.JobTrace(ev.key, ev.ns, ev.rec)
			default:
				if !bound || ev.key != key {
					key, bound = ev.key, true
					log, stream = logs.JobStream(key)
				}
				if stream != nil {
					log.AppendEntity(stream, ev.ns, ev.rec.Time, ev.entity, ev.rec.State, ev.rec.Detail)
				}
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

// fail is how a session dies, whoever reports it: a failed exchange (a
// probe's included) or the transport's watcher. The first report sets the
// verdict — a violation as it stands, any other cause as the connection's
// detail — and alone notifies the death callback with it. It returns the
// verdict.
func (s *session) fail(cause error) error {
	s.mu.Lock()
	return s.failUnlock(cause)
}

// failUnlock is fail for a caller that holds mu, which it releases. The
// callback runs on a fresh goroutine, since the reporter may hold its
// shard's lock, which the death handler takes; never for an orderly Close.
func (s *session) failUnlock(cause error) error {
	first := s.dead == nil
	if first {
		s.dead = cause
		if _, ok := cause.(violation); !ok {
			s.dead = &lostError{shard: s.shard, detail: cause}
		}
	}
	err, onDeath := s.dead, s.onDeath
	s.mu.Unlock()
	if first && onDeath != nil && !s.closing.Load() {
		go onDeath(err)
	}
	return err
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

// deadErr reports the session's death verdict, nil while the wire is
// healthy. It is the fleet layer's cheap liveness witness: a non-nil result
// means the death callback has run (or is about to), so callers can route
// work away from this session without risking another doomed exchange.
func (s *session) deadErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead
}
