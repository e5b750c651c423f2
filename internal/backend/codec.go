package backend

import "fmt"

// Wire codec names, as they appear in the init negotiation. These are part
// of the protocol: a client requests one by name and the worker echoes the
// name it accepted.
const (
	// CodecJSON is the field-named JSON payload encoding — debuggable with a
	// pipe tee, and what every session speaks during the init exchange.
	CodecJSON = "json"
	// CodecBinary is the compact binary payload encoding: varint integers,
	// length-prefixed strings, native binary trace records, descriptors,
	// workloads, strategies and reports.
	CodecBinary = "binary"
)

// binaryWire is the name binary is negotiated under: CodecBinary plus its
// layout version, so a parent and a worker built with different payload
// layouts fail the init exchange instead of misreading a job's frames. Bump
// it with every layout change.
const binaryWire = CodecBinary + "/5"

// A codec encodes request and response payloads (the bytes inside a frame).
// Encoders append to a caller-owned buffer so the hot path reuses one
// allocation per session; decoders fill a caller-owned struct. A codec
// instance may be stateful (the binary decoder interns strings across
// frames) and belongs to exactly one side of one session.
//
// DecodeResponse decodes a response's fields and leaves its events in
// resp.tail, which the session hands to the sink a chunk at a time.
type codec interface {
	AppendRequest(dst []byte, req *request) ([]byte, error)
	DecodeRequest(data []byte, req *request) error
	AppendResponse(dst []byte, resp *response) ([]byte, error)
	DecodeResponse(data []byte, resp *response) error
}

// CheckCodec accepts a configuration's codec choice: a concrete codec name,
// or empty for the default, binary.
func CheckCodec(name string) error {
	switch name {
	case "", CodecJSON, CodecBinary:
		return nil
	}
	return fmt.Errorf("unknown wire codec %q (want %q, %q, or empty for the default, binary)", name, CodecJSON, CodecBinary)
}
