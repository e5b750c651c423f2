package backend

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

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
// layouts fail the handshake instead of misreading a job's frames. Bump it
// with every layout change.
const binaryWire = CodecBinary + "/6"

// CheckCodec accepts a configuration's codec choice: binary, by name or
// empty for the default. ROADMAP item 1 A2 removes it with the choice.
func CheckCodec(name string) error {
	if name == "" || name == CodecBinary {
		return nil
	}
	return fmt.Errorf("unknown wire codec %q (the one codec is %q; empty means it too)", name, CodecBinary)
}

// The handshake is a session's first exchange and its only JSON one: the
// parent sends the shard's Config and the binary layout it speaks, and the
// worker builds the shard and echoes the layout, or refuses the init with
// a descriptive error and waits for another. JSON is what lets two builds
// agree at all: a peer of another layout still reads the refusal. Every
// later frame is binary (codec_binary.go).

// initOp is the handshake request's op.
const initOp = "init"

// initRequest is the handshake's parent→worker frame.
type initRequest struct {
	ID uint64 `json:"id"`
	Op string `json:"op"`
	// Init is the shard's Config as it is; plain data all the way down, so
	// there is no wire form of it to keep in step.
	Init *Config `json:"init,omitempty"`
	// Codec is the versioned binary layout the parent writes and reads
	// every later frame in.
	Codec string `json:"codec,omitempty"`
}

// initResponse is the handshake's worker→parent frame: the layout echoed,
// or the refusal in Err.
type initResponse struct {
	ID    uint64 `json:"id"`
	Err   string `json:"err,omitempty"`
	Codec string `json:"codec,omitempty"`
}

// appendJSON appends v's JSON encoding to dst.
func appendJSON(dst []byte, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return dst, fmt.Errorf("backend: encoding frame: %w", err)
	}
	return append(dst, body...), nil
}

// decodeJSON decodes one handshake frame into v, refusing a field v does
// not have and anything after the document. A field the frame does name is
// still filled, so a refusal can answer the request's ID.
func decodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, end := dec.Token(); !errors.Is(end, io.EOF) {
			err = errors.New("data after the JSON document")
		}
	}
	if err != nil {
		return fmt.Errorf("backend: decoding frame: %w", err)
	}
	return nil
}
