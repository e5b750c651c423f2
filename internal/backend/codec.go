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
	// length-prefixed strings, native binary trace records, and JSON blobs
	// for the cold structured payloads (descriptors, reports, strategies).
	CodecBinary = "binary"
)

// A codec encodes request and response payloads (the bytes inside a frame).
// Encoders append to a caller-owned buffer so the hot path reuses one
// allocation per session; decoders fill a caller-owned struct. A codec
// instance may be stateful (the binary decoder interns strings across
// frames) and belongs to exactly one side of one session.
type codec interface {
	Name() string
	AppendRequest(dst []byte, req *request) ([]byte, error)
	DecodeRequest(data []byte, req *request) error
	AppendResponse(dst []byte, resp *response) ([]byte, error)
	DecodeResponse(data []byte, resp *response) error
}

// newCodec builds a fresh codec instance by negotiated name.
func newCodec(name string) (codec, error) {
	switch name {
	case CodecJSON:
		return jsonCodec{}, nil
	case CodecBinary:
		return newBinaryCodec(), nil
	}
	return nil, fmt.Errorf("backend: unknown wire codec %q (want %q or %q)", name, CodecJSON, CodecBinary)
}

// validCodecChoice reports whether name is acceptable in a configuration:
// a concrete codec name, or empty for the default, binary.
func validCodecChoice(name string) bool {
	return name == "" || name == CodecJSON || name == CodecBinary
}
