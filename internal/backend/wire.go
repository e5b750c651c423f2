package backend

import (
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
//   - Codec (codec.go): the payload encoding — the compact binary form, or
//     field-named JSON when the client pins it — agreed in the init exchange,
//     which itself is always JSON.
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
// carrying a workload descriptor (a 2048-task workload is ~1 MB — workloads
// ride as JSON blobs in both codecs) and a Step response whose events carry
// a full wire batch of trace records (a 512-event batch is well under
// 100 KB in either codec). 256 MiB leaves two-plus orders of magnitude of
// headroom over both while still catching a corrupt or hostile length
// prefix before it turns into a multi-gigabyte allocation.
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
		return fmt.Errorf("backend: frame of %d bytes exceeds the %d-byte limit", body, limit)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(body))
	return nil
}

// readFrameInto reads one length-prefixed frame payload, reusing buf's
// storage when it is large enough. It returns the payload slice (valid until
// the next call with the same buf).
func readFrameInto(r io.Reader, buf []byte, limit int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf[:0], err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > uint32(limit) {
		return buf[:0], fmt.Errorf("backend: frame length %d exceeds the %d-byte limit", n, limit)
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

// Request operations.
const (
	opInit       = "init"
	opEnact      = "enact"
	opStep       = "step"
	opCancel     = "cancel"
	opIncomplete = "incomplete"
	opFeedback   = "feedback"
	opDerive     = "derive"
	opClose      = "close"
	opPing       = "ping"
	opInject     = "inject"
)

// request is one parent→worker frame.
type request struct {
	ID uint64 `json:"id"`
	Op string `json:"op"`

	// Init is the shard's Config as it is; plain data all the way down, so
	// there is no wire form of it to keep in step.
	Init *Config `json:"init,omitempty"`
	// Codec rides the init request: the wire codec the client asks for on
	// every frame after the init exchange (the exchange itself is always
	// JSON, which is what lets the two sides agree at all). A worker that
	// does not recognize the name rejects the init with a descriptive error
	// rather than answering in a codec the client may not speak.
	Codec string `json:"codec,omitempty"`

	Desc     *Descriptor          `json:"desc,omitempty"`
	Max      int                  `json:"max,omitempty"`
	Key      int                  `json:"key,omitempty"`
	Reason   string               `json:"reason,omitempty"`
	Report   *core.Report         `json:"report,omitempty"`
	Workload *skeleton.Workload   `json:"workload,omitempty"`
	Config   *core.StrategyConfig `json:"strategy_config,omitempty"`
	Chaos    *ChaosEvent          `json:"chaos,omitempty"`
}

// wireEvent is one ordered asynchronous output riding a response.
type wireEvent struct {
	Kind   string            `json:"k"` // "t" (trace) or "d" (done)
	Key    int               `json:"j"`
	NS     string            `json:"ns,omitempty"`
	Rec    *trace.WireRecord `json:"r,omitempty"`
	Report *core.Report      `json:"rep,omitempty"`
}

const (
	eventTrace = "t"
	eventDone  = "d"
)

// response is one worker→parent frame, answering the request with the same
// ID. Err carries operation-level failures (e.g. a derivation error) — the
// call failed, the worker is fine. Transport failures have no frame: the
// pipe breaks.
type response struct {
	ID     uint64      `json:"id"`
	Err    string      `json:"err,omitempty"`
	Events []wireEvent `json:"events,omitempty"`

	Enacted  *Enacted       `json:"enacted,omitempty"`
	Fired    int            `json:"fired,omitempty"`
	Drained  bool           `json:"drained,omitempty"`
	Strategy *core.Strategy `json:"strategy,omitempty"`
	Diag     string         `json:"diag,omitempty"`

	// Codec echoes the wire codec the worker accepted for every frame after
	// the init exchange. Only the init response carries it.
	Codec string `json:"codec,omitempty"`
}
