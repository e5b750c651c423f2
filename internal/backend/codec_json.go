package backend

import (
	"encoding/json"
	"fmt"
)

// jsonCodec is the original payload encoding: one field-named JSON document
// per frame. It is stateless and a pipe tee of the stream is human-readable
// — which is why it is the negotiation bootstrap (init frames are always
// JSON) and what a client can pin for debugging.
type jsonCodec struct{}

func (jsonCodec) AppendRequest(dst []byte, req *request) ([]byte, error) {
	return appendJSONValue(dst, req)
}

func (jsonCodec) DecodeRequest(data []byte, req *request) error {
	if err := json.Unmarshal(data, req); err != nil {
		return fmt.Errorf("backend: decoding frame: %w", err)
	}
	return nil
}

func (jsonCodec) AppendResponse(dst []byte, resp *response) ([]byte, error) {
	return appendJSONValue(dst, resp)
}

// DecodeResponse decodes the whole response, and hands its event list to
// the same dispatch loop the binary codec's frames go through.
func (jsonCodec) DecodeResponse(data []byte, resp *response) error {
	if err := json.Unmarshal(data, resp); err != nil {
		return fmt.Errorf("backend: decoding frame: %w", err)
	}
	resp.tail = eventTail{left: len(resp.Events), list: resp.Events}
	return nil
}

// appendJSONValue appends v's JSON encoding to dst.
func appendJSONValue(dst []byte, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return dst, fmt.Errorf("backend: encoding frame: %w", err)
	}
	return append(dst, body...), nil
}
