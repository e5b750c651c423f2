package trace

import (
	"encoding/binary"
	"fmt"

	"aimes/internal/sim"
)

// WireRecord is Record in a self-contained binary form. No worker frame
// carries it — the binary codec writes a record as indices into its frame's
// string table (internal/backend/codec_binary.go) — and the type is kept
// only because the benchmark's trace.wire_* probes time it.
type WireRecord Record

// AppendWire appends the record in a self-contained binary form: a
// zigzag-varint time followed by length-prefixed entity, state and detail
// strings (detail keeps its length prefix even when empty).
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

// DecodeWire decodes one record in AppendWire's form from the front of
// data, returning the unconsumed remainder. intern, when non-nil, converts
// the entity, state and detail byte slices to strings (a deduplicating
// interner, say); nil copies them.
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
