package backend

import (
	"encoding/json"
	"fmt"
)

// jsonCodec is the init exchange's encoding: one field-named JSON document
// per frame. It is stateless, so it is what two peers speak before they
// have agreed on anything — the init request and response, and a ping
// answered before init. Every frame after the init response is binary.
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

// DecodeResponse decodes the whole response. Events ride binary frames
// only, so a JSON response that carries any is refused.
func (jsonCodec) DecodeResponse(data []byte, resp *response) error {
	if err := json.Unmarshal(data, resp); err != nil {
		return fmt.Errorf("backend: decoding frame: %w", err)
	}
	if n := len(resp.Events); n > 0 {
		resp.Events = nil
		return fmt.Errorf("backend: decoding frame: a JSON response carries %d events", n)
	}
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
