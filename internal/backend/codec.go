package backend

import "fmt"

// CodecBinary is the wire's one data codec: varint integers,
// length-prefixed strings, native binary trace records, descriptors,
// workloads, strategies and reports.
//
// Deprecated: binary is the only codec, so there is nothing to choose. The
// name stays for the benchmark's callers until ROADMAP item 1 A2 removes it
// with them.
const CodecBinary = "binary"

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

// CheckCodec accepts a configuration's codec choice: binary, by name or
// empty for the default. ROADMAP item 1 A2 removes it with the choice.
func CheckCodec(name string) error {
	if name == "" || name == CodecBinary {
		return nil
	}
	return fmt.Errorf("unknown wire codec %q (the one codec is %q; empty means it too)", name, CodecBinary)
}
