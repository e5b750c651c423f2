package backend

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"aimes/internal/core"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// binaryCodec is the compact payload encoding, negotiated at init. It is a
// hybrid by design: the hot event stream — trace records and the scalar
// fields around them, which dominate the byte volume and the decode CPU of
// every Step response — is native binary (varints, length-prefixed strings,
// trace.WireRecord's wire form), while the cold structured payloads that
// cross the wire a handful of times per job (descriptors, workloads,
// strategies, reports, the init config) ride as length-prefixed JSON blobs.
// That keeps the full request/response value space representable (the fuzz
// battery proves both codecs decode each other's value space) without
// hand-maintaining binary layouts for deep config structs that the profile
// says never matter.
//
// A binaryCodec instance is stateful — the decode side interns entity,
// state, detail and namespace strings, because a shard emits the same few
// dozen of them millions of times — so each session side owns a fresh
// instance.
type binaryCodec struct {
	strings map[string]string
}

func newBinaryCodec() *binaryCodec {
	return &binaryCodec{strings: make(map[string]string, 64)}
}

func (*binaryCodec) Name() string { return CodecBinary }

// internMax caps the intern table; a pathological stream of unique strings
// resets it rather than growing without bound.
const internMax = 4096

// intern returns a canonical string for b without allocating on a hit (the
// map[string]string lookup keyed by string(b) does not materialize the key).
func (c *binaryCodec) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := c.strings[string(b)]; ok {
		return s
	}
	if len(c.strings) >= internMax {
		c.strings = make(map[string]string, 64)
	}
	s := string(b)
	c.strings[s] = s
	return s
}

// Request opcodes (byte form of the op strings). Zero is reserved for the
// string fallback so an op outside the table still round-trips; 8 was the
// retired appseed op and stays unassigned.
var opCodes = map[string]byte{
	opInit: 1, opEnact: 2, opStep: 3, opCancel: 4, opIncomplete: 5,
	opFeedback: 6, opDerive: 7, opClose: 9, opPing: 10, opInject: 11,
}

var opNames = func() map[byte]string {
	m := make(map[byte]string, len(opCodes))
	for name, code := range opCodes {
		m[code] = name
	}
	return m
}()

// Presence bits for request pointer fields.
const (
	reqHasInit = 1 << iota
	reqHasDesc
	reqHasReport
	reqHasWorkload
	reqHasConfig
	reqHasChaos
)

// Presence/flag bits for response fields.
const (
	respDrained = 1 << iota
	respHasEnacted
	respHasStrategy
)

// Event kind bytes; zero is the string fallback.
var eventCodes = map[string]byte{eventTrace: 1, eventDone: 2}
var eventNames = map[byte]string{1: eventTrace, 2: eventDone}

// Presence bits for event pointer fields.
const (
	evHasRec = 1 << iota
	evHasReport
)

func appendWireString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendWireJSON appends v as a length-prefixed JSON blob.
func appendWireJSON(dst []byte, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return dst, fmt.Errorf("backend: encoding frame: %w", err)
	}
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...), nil
}

func (c *binaryCodec) AppendRequest(dst []byte, req *request) ([]byte, error) {
	if code, ok := opCodes[req.Op]; ok {
		dst = append(dst, code)
	} else {
		dst = append(dst, 0)
		dst = appendWireString(dst, req.Op)
	}
	dst = binary.AppendUvarint(dst, req.ID)
	var bits byte
	if req.Init != nil {
		bits |= reqHasInit
	}
	if req.Desc != nil {
		bits |= reqHasDesc
	}
	if req.Report != nil {
		bits |= reqHasReport
	}
	if req.Workload != nil {
		bits |= reqHasWorkload
	}
	if req.Config != nil {
		bits |= reqHasConfig
	}
	if req.Chaos != nil {
		bits |= reqHasChaos
	}
	dst = append(dst, bits)
	dst = binary.AppendVarint(dst, int64(req.Max))
	dst = binary.AppendVarint(dst, int64(req.Key))
	dst = appendWireString(dst, req.Reason)
	dst = appendWireString(dst, req.Codec)
	var err error
	for _, blob := range []struct {
		present bool
		v       any
	}{
		{req.Init != nil, req.Init},
		{req.Desc != nil, req.Desc},
		{req.Report != nil, req.Report},
		{req.Workload != nil, req.Workload},
		{req.Config != nil, req.Config},
		{req.Chaos != nil, req.Chaos},
	} {
		if !blob.present {
			continue
		}
		if dst, err = appendWireJSON(dst, blob.v); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func (c *binaryCodec) DecodeRequest(data []byte, req *request) error {
	r := binReader{data: data}
	code := r.byte()
	if code == 0 {
		req.Op = string(r.bytes())
	} else if name, ok := opNames[code]; ok {
		req.Op = name
	} else if r.err == nil {
		return fmt.Errorf("backend: decoding frame: unknown opcode %d", code)
	}
	req.ID = r.uvarint()
	bits := r.byte()
	req.Max = int(r.varint())
	req.Key = int(r.varint())
	req.Reason = string(r.bytes())
	req.Codec = string(r.bytes())
	if bits&reqHasInit != 0 {
		req.Init = new(Config)
		r.json(req.Init)
	}
	if bits&reqHasDesc != 0 {
		req.Desc = new(Descriptor)
		r.json(req.Desc)
	}
	if bits&reqHasReport != 0 {
		req.Report = new(core.Report)
		r.json(req.Report)
	}
	if bits&reqHasWorkload != 0 {
		req.Workload = new(skeleton.Workload)
		r.json(req.Workload)
	}
	if bits&reqHasConfig != 0 {
		req.Config = new(core.StrategyConfig)
		r.json(req.Config)
	}
	if bits&reqHasChaos != 0 {
		req.Chaos = new(ChaosEvent)
		r.json(req.Chaos)
	}
	return r.finish()
}

func (c *binaryCodec) AppendResponse(dst []byte, resp *response) ([]byte, error) {
	dst = binary.AppendUvarint(dst, resp.ID)
	dst = appendWireString(dst, resp.Err)
	dst = appendWireString(dst, resp.Diag)
	dst = appendWireString(dst, resp.Codec)
	var bits byte
	if resp.Drained {
		bits |= respDrained
	}
	if resp.Enacted != nil {
		bits |= respHasEnacted
	}
	if resp.Strategy != nil {
		bits |= respHasStrategy
	}
	dst = append(dst, bits)
	dst = binary.AppendVarint(dst, int64(resp.Fired))
	var err error
	if resp.Enacted != nil {
		if dst, err = appendWireJSON(dst, resp.Enacted); err != nil {
			return dst, err
		}
	}
	if resp.Strategy != nil {
		if dst, err = appendWireJSON(dst, resp.Strategy); err != nil {
			return dst, err
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(resp.Events)))
	for i := range resp.Events {
		ev := &resp.Events[i]
		if code, ok := eventCodes[ev.Kind]; ok {
			dst = append(dst, code)
		} else {
			dst = append(dst, 0)
			dst = appendWireString(dst, ev.Kind)
		}
		dst = binary.AppendVarint(dst, int64(ev.Key))
		dst = appendWireString(dst, ev.NS)
		var ebits byte
		if ev.Rec != nil {
			ebits |= evHasRec
		}
		if ev.Report != nil {
			ebits |= evHasReport
		}
		dst = append(dst, ebits)
		if ev.Rec != nil {
			dst = ev.Rec.AppendWire(dst)
		}
		if ev.Report != nil {
			if dst, err = appendWireJSON(dst, ev.Report); err != nil {
				return dst, err
			}
		}
	}
	return dst, nil
}

// decodeChunk is how many events (and trace records) DecodeResponse
// reserves at a time.
const decodeChunk = 1024

// DecodeResponse materialises the response's events: one []wireEvent and
// one []trace.WireRecord slab per batch, strings interned, nothing shared
// with data or with an earlier call. They stay materialised on purpose —
// see Worker.call for why neither the slices nor data can be reused while
// the events are dispatched.
func (c *binaryCodec) DecodeResponse(data []byte, resp *response) error {
	r := binReader{data: data}
	resp.ID = r.uvarint()
	resp.Err = string(r.bytes())
	resp.Diag = string(r.bytes())
	resp.Codec = string(r.bytes())
	bits := r.byte()
	resp.Drained = bits&respDrained != 0
	resp.Fired = int(r.varint())
	if bits&respHasEnacted != 0 {
		resp.Enacted = new(Enacted)
		r.json(resp.Enacted)
	}
	if bits&respHasStrategy != 0 {
		resp.Strategy = new(core.Strategy)
		r.json(resp.Strategy)
	}
	n := r.uvarint()
	if r.err != nil {
		return r.finish()
	}
	// The count is the peer's word. An event is at least 4 bytes, which
	// rejects a count the payload cannot hold, but at 56 bytes a wireEvent
	// that alone would let a forged count in a 256 MB frame reserve
	// gigabytes: Events and the record slab grow a chunk at a time, so a
	// real batch (at most a few hundred events) costs one allocation each
	// and a corrupt count costs one chunk before its first field fails.
	if max := uint64(len(r.data)/4 + 1); n > max {
		return fmt.Errorf("backend: decoding frame: event count %d exceeds payload", n)
	}
	resp.Events = nil
	var recs []trace.WireRecord // this batch's records; Rec points into it
	for i := 0; i < int(n); i++ {
		if i == len(resp.Events) {
			resp.Events = append(resp.Events, make([]wireEvent, min(int(n)-i, decodeChunk))...)
		}
		ev := &resp.Events[i]
		code := r.byte()
		if code == 0 {
			ev.Kind = string(r.bytes())
		} else if name, ok := eventNames[code]; ok {
			ev.Kind = name
		} else if r.err == nil {
			return fmt.Errorf("backend: decoding frame: unknown event kind %d", code)
		}
		ev.Key = int(r.varint())
		ev.NS = c.intern(r.bytes())
		ebits := r.byte()
		if ebits&evHasRec != 0 {
			if len(recs) == 0 {
				recs = make([]trace.WireRecord, min(int(n)-i, decodeChunk))
			}
			ev.Rec, recs = &recs[0], recs[1:]
			if r.err == nil {
				rest, err := ev.Rec.DecodeWire(r.data, c.intern)
				if err != nil {
					r.err = err
				} else {
					r.data = rest
				}
			}
		}
		if ebits&evHasReport != 0 {
			ev.Report = new(core.Report)
			r.json(ev.Report)
		}
		if r.err != nil {
			break
		}
	}
	return r.finish()
}

// binReader is a cursor over one binary payload with a sticky error: after
// the first malformed field every subsequent read is a zero-value no-op and
// finish reports the cause, so decode paths read straight through without
// per-field error plumbing.
type binReader struct {
	data []byte
	err  error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("backend: decoding frame: truncated %s", what)
	}
}

func (r *binReader) byte() byte {
	if r.err != nil || len(r.data) == 0 {
		r.fail("byte")
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

// bytes reads one length-prefixed field, borrowing from the payload.
func (r *binReader) bytes() []byte {
	l := r.uvarint()
	if r.err != nil {
		return nil
	}
	if l > uint64(len(r.data)) {
		r.fail("string")
		return nil
	}
	b := r.data[:l]
	r.data = r.data[l:]
	return b
}

// json decodes one length-prefixed JSON blob into v.
func (r *binReader) json(v any) {
	b := r.bytes()
	if r.err != nil {
		return
	}
	if err := json.Unmarshal(b, v); err != nil {
		r.err = fmt.Errorf("backend: decoding frame: %w", err)
	}
}

func (r *binReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if len(r.data) != 0 {
		return fmt.Errorf("backend: decoding frame: %d trailing bytes", len(r.data))
	}
	return nil
}
