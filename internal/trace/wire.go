package trace

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"aimes/internal/sim"
)

// WireRecord is Record in the compact array encoding used on the
// worker-backend wire: [time_ns, entity, state, detail], with the detail
// element omitted when empty. Trace records dominate the byte volume of the
// worker protocol — every pilot and unit transition crosses the pipe — so
// the stream drops the per-record field names of the struct encoding while
// staying plain JSON (debuggable with a pipe tee, no schema registry).
type WireRecord Record

// MarshalJSON encodes the record as [time_ns, entity, state] or
// [time_ns, entity, state, detail].
func (r WireRecord) MarshalJSON() ([]byte, error) {
	if r.Detail == "" {
		return json.Marshal([3]any{int64(r.Time), r.Entity, r.State})
	}
	return json.Marshal([4]any{int64(r.Time), r.Entity, r.State, r.Detail})
}

// UnmarshalJSON decodes either array form.
func (r *WireRecord) UnmarshalJSON(data []byte) error {
	var parts []json.RawMessage
	if err := json.Unmarshal(data, &parts); err != nil {
		return fmt.Errorf("trace: wire record: %w", err)
	}
	if len(parts) < 3 || len(parts) > 4 {
		return fmt.Errorf("trace: wire record has %d elements, want 3 or 4", len(parts))
	}
	var ns int64
	if err := json.Unmarshal(parts[0], &ns); err != nil {
		return fmt.Errorf("trace: wire record time: %w", err)
	}
	r.Time = sim.Time(ns)
	if err := json.Unmarshal(parts[1], &r.Entity); err != nil {
		return fmt.Errorf("trace: wire record entity: %w", err)
	}
	if err := json.Unmarshal(parts[2], &r.State); err != nil {
		return fmt.Errorf("trace: wire record state: %w", err)
	}
	r.Detail = ""
	if len(parts) == 4 {
		if err := json.Unmarshal(parts[3], &r.Detail); err != nil {
			return fmt.Errorf("trace: wire record detail: %w", err)
		}
	}
	return nil
}

// Record converts back to the canonical struct form.
func (r WireRecord) Record() Record { return Record(r) }

// AppendWire appends the record in its binary wire form: a zigzag-varint
// time followed by length-prefixed entity, state and detail strings (detail
// keeps its length prefix even when empty, so the frame stays
// self-describing). This is the hot element of the worker protocol's binary
// codec — trace records dominate the byte volume of every Step response —
// so the encoding carries no field names, no quoting, and no per-record
// framing beyond the four fields themselves.
func (r WireRecord) AppendWire(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(r.Time))
	dst = binary.AppendUvarint(dst, uint64(len(r.Entity)))
	dst = append(dst, r.Entity...)
	dst = binary.AppendUvarint(dst, uint64(len(r.State)))
	dst = append(dst, r.State...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Detail)))
	dst = append(dst, r.Detail...)
	return dst
}

// DecodeWire decodes one binary wire record from the front of data,
// returning the unconsumed remainder. intern, when non-nil, converts the
// entity, state and detail byte slices to strings — the decode side of the
// worker protocol passes a bounded deduplicating interner, because a shard
// emits the same few dozen entity and state strings millions of times, and
// the details too: three records in ten carry one, out of a handful of
// memoised texts.
func (r *WireRecord) DecodeWire(data []byte, intern func([]byte) string) ([]byte, error) {
	if intern == nil {
		intern = func(b []byte) string { return string(b) }
	}
	ns, n := binary.Varint(data)
	if n <= 0 {
		return nil, fmt.Errorf("trace: wire record: truncated time varint")
	}
	data = data[n:]
	r.Time = sim.Time(ns)
	take := func(field string) ([]byte, error) {
		l, n := binary.Uvarint(data)
		if n <= 0 || l > uint64(len(data)-n) {
			return nil, fmt.Errorf("trace: wire record: truncated %s", field)
		}
		b := data[n : n+int(l)]
		data = data[n+int(l):]
		return b, nil
	}
	b, err := take("entity")
	if err != nil {
		return nil, err
	}
	r.Entity = intern(b)
	if b, err = take("state"); err != nil {
		return nil, err
	}
	r.State = intern(b)
	if b, err = take("detail"); err != nil {
		return nil, err
	}
	r.Detail = intern(b)
	return data, nil
}
