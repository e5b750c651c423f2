package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
)

// EventStream is a live Server-Sent-Events subscription to a job's event
// stream (Events) or the environment-wide trace (EnvEvents). Read C until
// it closes; then Final reports the job's terminal snapshot (job streams
// only), Dropped the events the stream lost, and Err any transport error.
type EventStream struct {
	// C delivers events in order. It closes when the job finishes, the
	// stream is Closed, the context is canceled, or the connection drops.
	C <-chan Event

	ch     chan Event
	cancel context.CancelFunc
	tab    *internTable // the Client's

	mu      sync.Mutex
	err     error
	final   *JobInfo
	dropped int64
}

// Final returns the job's terminal snapshot, non-nil only after C closed
// because the job finished (never for EnvEvents streams).
func (s *EventStream) Final() *JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.final
}

// Dropped reports the cumulative number of events the server says this
// stream missed: the daemon's trace log had already evicted them.
func (s *EventStream) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Err reports why the stream ended, nil for a clean end (job done or Close).
func (s *EventStream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close tears the stream down. C closes shortly after.
func (s *EventStream) Close() { s.cancel() }

// Events subscribes to one job's event stream. Events with Seq < from are
// skipped server-side; pass 0 (or 1) for everything the server still retains
// — the whole job, unless the shard has logged 2^20 newer records since, when
// the gap is surfaced through Dropped. The stream ends with the job: C closes
// and Final carries the terminal snapshot including the report. From the
// start, it is the stream this Client's latest Submit holds when that was
// this job's, and costs no request.
func (c *Client) Events(ctx context.Context, id string, from int64) (*EventStream, error) {
	if from <= 1 {
		if p, ok := c.claim(id); ok {
			ctx, cancel := context.WithCancel(ctx)
			context.AfterFunc(ctx, p.cancel) // the caller's end is the request's
			return c.follow(ctx, cancel, p), nil
		}
	}
	path := "/v1/jobs/" + url.PathEscape(id) + "/events"
	if from > 0 {
		path += "?from=" + strconv.FormatInt(from, 10)
	}
	return c.stream(ctx, path)
}

// EnvEvents subscribes to the environment-wide live trace
// (aimes.Environment.Subscribe on the daemon): every shard's pilot and unit
// transitions, entity-qualified by job namespace. Events carry no Seq or
// Job; the stream has no replay and no terminal event — it ends when the
// subscriber closes it or the daemon shuts down.
func (c *Client) EnvEvents(ctx context.Context) (*EventStream, error) {
	return c.stream(ctx, "/v1/events")
}

func (c *Client) stream(ctx context.Context, path string) (*EventStream, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := c.request(ctx, http.MethodGet, path, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header["Accept"] = eventStreamType
	resp, err := c.http.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		defer cancel()
		var eb ErrorBody
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
			return nil, &StatusError{Code: resp.StatusCode, Message: eb.Error}
		}
		return nil, &StatusError{Code: resp.StatusCode, Message: resp.Status}
	}
	p := parked{body: resp.Body, in: readers.Get().(*bufio.Reader), cancel: cancel}
	p.in.Reset(resp.Body)
	return c.follow(ctx, cancel, p), nil
}

// follow delivers the events of stream p to a new EventStream, which ctx
// ends and cancel closes. Past the "done" event it reads to the body's end,
// which the daemon sends right after, so that the connection goes back to
// the transport's pool.
func (c *Client) follow(ctx context.Context, cancel context.CancelFunc, p parked) *EventStream {
	s := &EventStream{ch: make(chan Event, 64), cancel: cancel, tab: &c.tab}
	s.C = s.ch
	go func() {
		defer cancel()
		err := s.consume(ctx, p.in)
		s.mu.Lock()
		if err != nil && ctx.Err() == nil {
			s.err = err
		}
		s.mu.Unlock()
		close(s.ch)
		if err == nil {
			drain(p.in)
		}
		p.close()
	}()
	return s
}

// drain reads a stream past its "done" event to the end of its body.
func drain(r *bufio.Reader) {
	for range 4 { // the daemon sends nothing more; another server may
		if _, err := r.Discard(r.Buffered() + 1); err != nil {
			return
		}
	}
}

// readers lends the streams their line readers, as net/http lends its own:
// a stream's 4 KiB buffer serves the next stream once it ends.
var readers = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// consume parses the SSE wire format: "event:"/"data:" lines accumulate
// until a blank line dispatches them; ":" lines are heartbeat comments.
// Lines are read in place (ReadSlice) and what outlives one — the event
// name, the data — is copied into buffers reused for the whole stream.
func (s *EventStream) consume(ctx context.Context, r *bufio.Reader) error {
	var event, data, spill []byte
	for {
		line, err := readLine(r, &spill)
		if err != nil {
			return err
		}
		switch {
		case len(line) == 0:
			if err := s.dispatch(ctx, event, data); err != nil {
				if err == errStreamDone {
					return nil
				}
				return err
			}
			event, data = event[:0], data[:0]
		case line[0] == ':':
			// heartbeat comment
		case bytes.HasPrefix(line, eventField):
			event = append(event[:0], bytes.TrimSpace(line[len(eventField):])...)
		case bytes.HasPrefix(line, dataField):
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, bytes.TrimSpace(line[len(dataField):])...)
		}
	}
}

var eventField, dataField = []byte("event:"), []byte("data:")

// readLine reads r's next line without its line ending: in place, or, when
// it is longer than r's buffer, into *spill.
func readLine(r *bufio.Reader, spill *[]byte) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		*spill = (*spill)[:0]
		for err == bufio.ErrBufferFull {
			*spill = append(*spill, line...)
			line, err = r.ReadSlice('\n')
		}
		line = append(*spill, line...)
		*spill = line
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// nextEvent reads the next event off r and reports whether it is named
// name; data, emptied first, receives its data. Nothing else is kept or
// decoded.
func nextEvent(r *bufio.Reader, spill *[]byte, name string, data []byte) (bool, []byte, error) {
	data = data[:0]
	named, started := false, false
	for {
		line, err := readLine(r, spill)
		switch {
		case err != nil:
			return false, data, err
		case len(line) == 0:
			if started {
				return named, data, nil
			}
			continue // the end of a heartbeat
		case line[0] == ':':
			continue // heartbeat comment
		case bytes.HasPrefix(line, eventField):
			named = string(bytes.TrimSpace(line[len(eventField):])) == name
		case bytes.HasPrefix(line, dataField):
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, bytes.TrimSpace(line[len(dataField):])...)
		}
		started = true
	}
}

// errStreamDone signals a clean, server-terminated stream.
var errStreamDone = fmt.Errorf("done")

func (s *EventStream) dispatch(ctx context.Context, event, data []byte) error {
	switch string(event) {
	case "job", "trace":
		var ev Event
		if !s.tab.decodeEvent(data, &ev) {
			var err error
			if ev, err = unmarshalEvent(data); err != nil {
				return fmt.Errorf("client: bad %s event %q: %w", event, data, err)
			}
		}
		select {
		case s.ch <- ev:
		case <-ctx.Done():
			return ctx.Err()
		}
	case "dropped":
		var d Dropped
		if err := json.Unmarshal(data, &d); err != nil {
			return fmt.Errorf("client: bad dropped event %q: %w", data, err)
		}
		s.mu.Lock()
		s.dropped = d.Count
		s.mu.Unlock()
	case "done":
		info, err := s.tab.decodeInfo(data)
		if err != nil {
			return fmt.Errorf("client: bad done event %q: %w", data, err)
		}
		s.mu.Lock()
		s.final = info
		s.mu.Unlock()
		return errStreamDone // clean end; the server closes after done
	}
	return nil
}

// unmarshalEvent is encoding/json's decoding of an event payload: the
// reference decodeEvent must agree with (FuzzDecodeEvent) and the path of
// every payload it declines. Out of line, so that the Event dispatch decodes
// into does not escape to the heap on the fast path.
func unmarshalEvent(data []byte) (ev Event, err error) {
	err = json.Unmarshal(data, &ev)
	return ev, err
}

// internTable deduplicates the strings that repeat across a Client's jobs and
// streams: a stream's job ID, entities, states and details, a snapshot's
// tenant, state and resource names. Capped; a run of unique strings resets it.
type internTable struct {
	mu sync.Mutex
	m  map[string]string
}

// intern returns b as a string, the same one every time; t.mu held.
func (t *internTable) intern(b []byte) string {
	if s, ok := t.m[string(b)]; ok || len(b) == 0 {
		return s
	}
	if t.m == nil || len(t.m) >= 4096 {
		t.m = make(map[string]string, 64)
	}
	s := string(b)
	t.m[s] = s
	return s
}

// decodeEvent decodes an event payload in the form AppendEvent writes it,
// interning its strings. It reports false — with ev in an unspecified state
// — for anything else, valid JSON or not, and the caller falls back to
// encoding/json; when it reports true, ev is what json.Unmarshal into a zero
// Event yields.
func (t *internTable) decodeEvent(b []byte, ev *Event) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := reader(b, t)
	r.event(ev)
	return r.ok && len(r.in.Rest()) == 0
}

// decodeInfo decodes a job snapshot — a reply's body, a "done" event's data —
// in the form AppendJobInfo writes it, or, in any other, with encoding/json.
func (t *internTable) decodeInfo(b []byte) (*JobInfo, error) {
	info := new(JobInfo)
	t.mu.Lock()
	r := reader(b, t)
	r.jobInfo(info)
	t.mu.Unlock()
	if !r.ok || !r.in.End() {
		*info = JobInfo{}
		if err := json.Unmarshal(b, info); err != nil {
			return nil, err
		}
	}
	return info, nil
}
