package backend

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"aimes/internal/core"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// The worker wire protocol, layered (bottom up):
//
//   - Transport (transport.go): a byte stream to the worker — child-process
//     stdio pipes, or TCP with a shared-secret handshake.
//   - Frames (this file): 4-byte big-endian payload length + one payload.
//   - Handshake (codec.go): the session's first exchange, one JSON init
//     frame each way, agrees on the versioned binary layout.
//   - Codec (codec_binary.go): the binary layout every later frame's
//     payload is written in.
//   - Session (session.go): request/response correlation, ordered event
//     replay, crash detection.
//
// Requests and responses alternate strictly (the worker is single-threaded
// by design — its engine is), and every response carries the ordered events
// (trace records, completions) the operation produced, so the client can
// replay them into its sink before the call returns, preserving the local
// backend's callback order.

// DefaultMaxFrame bounds a single frame, on both ends of every connection.
// Sizing: the largest legitimate frames are an enact request
// carrying a workload descriptor (a 2048-task bag of tasks is 0.18 MB) and a
// Step response whose events carry a full wire batch of trace records (a
// 512-record batch is about 9 KB, 18.1 bytes a record). 256 MiB leaves
// three orders of magnitude of headroom over both while still catching a
// corrupt or hostile length prefix before it turns into a multi-gigabyte
// allocation.
const DefaultMaxFrame = 256 << 20

// finishFrame patches the 4-byte length header reserved at the front of buf
// and enforces the frame-size limit. Callers build a frame by appending the
// encoded payload after a 4-byte placeholder (buf = buf[:4] then codec
// appends), so the header patch makes the whole frame one contiguous slice —
// and one Write, which matters on TCP (one segment, no tinygram split)
// and keeps the stdio hot path at a single syscall.
func finishFrame(buf []byte, limit int) error {
	body := len(buf) - 4
	if body > limit {
		return violation{fmt.Errorf("backend: frame of %d bytes exceeds the %d-byte limit", body, limit)}
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(body))
	return nil
}

// violation is a breach of the wire protocol this package detects in a
// frame it writes or reads (oversized, unencodable, undecodable, answering
// another request). A session that meets one dies with it as its verdict,
// so it is ErrWorkerLost too.
type violation struct{ error }

func (v violation) Unwrap() []error { return []error{v.error, ErrWorkerLost} }

// readFrameInto reads one length-prefixed frame payload, reusing buf's
// storage when it is large enough. It returns the payload slice (valid until
// the next call with the same buf). The header is peeked out of r's buffer,
// so reading a frame allocates nothing once buf has grown.
func readFrameInto(r *bufio.Reader, buf []byte, limit int) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return buf[:0], err
	}
	n := binary.BigEndian.Uint32(hdr)
	_, _ = r.Discard(4) // cannot fail: Peek buffered the four bytes
	if n > uint32(limit) {
		return buf[:0], violation{fmt.Errorf("backend: frame length %d exceeds the %d-byte limit", n, limit)}
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], err
	}
	return buf, nil
}

// Request operations, as their byte on the wire: opEnact through opClose,
// which the codec's range check takes to be the last. Zero is no op, and 1
// was the init op's until the init exchange became the JSON handshake: a
// binary frame carrying either is refused.
const (
	opEnact byte = 2 + iota
	opStep
	opCancel
	opIncomplete
	opDerive
	opInject
	opPing
	opClose
)

// request is one parent→worker frame after the handshake.
type request struct {
	ID       uint64
	Op       byte
	Desc     *Descriptor
	Max      int
	Key      int
	Reason   string
	Workload *skeleton.Workload
	Config   *core.StrategyConfig
	Chaos    *ChaosEvent
}

// wireEvent is one ordered asynchronous output riding a response, as the
// worker encodes it.
type wireEvent struct {
	Kind   byte // kindTrace or kindDone
	Key    int
	NS     string
	Rec    *trace.Record // a trace event's record
	Report *core.Report  // a done event's report
}

// Event kinds, as the binary codec writes them.
const (
	kindTrace byte = 1
	kindDone  byte = 2
)

// event is one response event decoded for dispatch, into storage the
// dispatching call owns (see session.dispatch).
type event struct {
	kind   byte
	key    int
	ns     string
	rec    trace.Record
	report *core.Report
}

// eventTail is what a response's call still has to dispatch once the codec
// has decoded the response's fields: its events, left in the frame for
// readEvents to decode a chunk at a time.
type eventTail struct {
	left  int    // events not yet handed out
	frame []byte // the read buffer the call owns until left is 0
	// table is the frame's strings, in storage the call owns with its
	// frame.
	table []string
	bin   *binaryCodec
	rd    binReader // the frame from the next event on
	at    int64     // the time of the previous record
}

// response is one worker→parent frame, answering the request with the same
// ID. Err carries operation-level failures (e.g. a derivation error) — the
// call failed, the worker is fine. Transport failures have no frame: the
// pipe breaks.
type response struct {
	ID     uint64
	Err    string
	Events []wireEvent

	Enacted  *Enacted
	Fired    int
	Drained  bool
	Strategy *core.Strategy
	Diag     string

	// tail is what the parent's binary decode leaves of Events for the
	// call to dispatch; the worker's encode never looks at it.
	tail eventTail
}
