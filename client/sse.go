package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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

	ch   chan Event
	p    parked       // the stream read; its cancel is Close
	stop func() bool  // detaches the caller's context from p; nil when none was attached
	tab  *internTable // the Client's

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
func (s *EventStream) Close() { s.p.cancel() }

// Events subscribes to one job's event stream. Events with Seq < from are
// skipped server-side; pass 0 (or 1) for everything the server still retains
// — the whole job, unless the shard has logged 2^20 newer records since, when
// the gap is surfaced through Dropped. The stream ends with the job: C closes
// and Final carries the terminal snapshot including the report. From the
// start, it is the stream this Client's latest Submit holds when that was
// this job's, and costs no request: the stream keeps the request's context,
// which ctx's end, when it can end, cancels.
func (c *Client) Events(ctx context.Context, id string, from int64) (*EventStream, error) {
	if from <= 1 {
		if p, ok := c.claim(id); ok {
			return c.follow(p, p.endWith(ctx)), nil
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
	p := parked{body: resp.Body, in: lendReader(resp.Body), ctx: ctx, cancel: cancel}
	return c.follow(p, nil), nil
}

// follow delivers the events of stream p to a new EventStream, which p's
// context ends and its cancel closes; stop, when not nil, is called once the
// stream has ended. Past the "done" event it reads to the body's end, which
// the daemon sends right after, so that the connection goes back to the
// transport's pool.
func (c *Client) follow(p parked, stop func() bool) *EventStream {
	s := &EventStream{ch: make(chan Event, 64), p: p, stop: stop, tab: &c.tab}
	s.C = s.ch
	go s.run()
	return s
}

// run is a followed stream's goroutine.
func (s *EventStream) run() {
	if s.stop != nil {
		defer s.stop()
	}
	err := s.consume(s.p.ctx, s.p.in)
	s.mu.Lock()
	if err != nil && s.p.ctx.Err() == nil {
		s.err = err
	}
	s.mu.Unlock()
	close(s.ch)
	if err == nil {
		s.p.in.drain()
	}
	s.p.close()
}

// lineReader reads a stream's lines, and holds what outlives one line: the
// current event's name and data, and a line longer than the reader's buffer.
// Lent with its buffers by readers, as net/http lends its own readers: a
// stream's 4 KiB buffer serves the next stream once it ends.
type lineReader struct {
	*bufio.Reader
	event, data, spill []byte
}

var readers = sync.Pool{New: func() any { return &lineReader{Reader: bufio.NewReader(nil)} }}

// lendReader returns a pooled line reader of body.
func lendReader(body io.Reader) *lineReader {
	r := readers.Get().(*lineReader)
	r.Reset(body)
	return r
}

// release gives r back to readers, with its buffers unless a long line grew
// one past maxPooledLine.
func (r *lineReader) release() {
	r.Reset(nil) // keep no reference to the connection
	r.event, r.data, r.spill = pooledLine(r.event), pooledLine(r.data), pooledLine(r.spill)
	readers.Put(r)
}

// maxPooledLine is the largest buffer a released reader keeps.
const maxPooledLine = 64 << 10

// pooledLine is b emptied, or nil when it is too large to keep.
func pooledLine(b []byte) []byte {
	if cap(b) > maxPooledLine {
		return nil
	}
	return b[:0]
}

// drain reads a stream past its "done" event to the end of its body.
func (r *lineReader) drain() {
	for range 4 { // the daemon sends nothing more; another server may
		if _, err := r.Discard(r.Buffered() + 1); err != nil {
			return
		}
	}
}

// consume parses the SSE wire format: "event:"/"data:" lines accumulate
// until a blank line dispatches them; ":" lines are heartbeat comments.
// Lines are read in place (ReadSlice) and what outlives one — the event
// name, the data — is copied into r's buffers.
func (s *EventStream) consume(ctx context.Context, r *lineReader) error {
	r.event, r.data = r.event[:0], r.data[:0]
	for {
		line, err := r.line()
		if err != nil {
			return err
		}
		switch {
		case len(line) == 0:
			if err := s.dispatch(ctx, r.event, r.data); err != nil {
				if err == errStreamDone {
					return nil
				}
				return err
			}
			r.event, r.data = r.event[:0], r.data[:0]
		case line[0] == ':':
			// heartbeat comment
		case bytes.HasPrefix(line, eventField):
			r.event = append(r.event[:0], bytes.TrimSpace(line[len(eventField):])...)
		case bytes.HasPrefix(line, dataField):
			r.appendData(line)
		}
	}
}

var eventField, dataField = []byte("event:"), []byte("data:")

// appendData appends a "data:" line's value to the event's data.
func (r *lineReader) appendData(line []byte) {
	if len(r.data) > 0 {
		r.data = append(r.data, '\n')
	}
	r.data = append(r.data, bytes.TrimSpace(line[len(dataField):])...)
}

// line reads the next line without its line ending: in place, or, when it
// is longer than the buffer, into r.spill.
func (r *lineReader) line() ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.spill = r.spill[:0]
		for err == bufio.ErrBufferFull {
			r.spill = append(r.spill, line...)
			line, err = r.ReadSlice('\n')
		}
		line = append(r.spill, line...)
		r.spill = line
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// next reads the next event and reports whether it is named name; its data,
// in r.data, is returned. Nothing else is kept or decoded.
func (r *lineReader) next(name string) (bool, []byte, error) {
	r.data = r.data[:0]
	named, started := false, false
	for {
		line, err := r.line()
		switch {
		case err != nil:
			return false, r.data, err
		case len(line) == 0:
			if started {
				return named, r.data, nil
			}
			continue // the end of a heartbeat
		case line[0] == ':':
			continue // heartbeat comment
		case bytes.HasPrefix(line, eventField):
			named = string(bytes.TrimSpace(line[len(eventField):])) == name
		case bytes.HasPrefix(line, dataField):
			r.appendData(line)
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
		info, err := s.tab.decodeInfo(data, s.p.id)
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
// id is the ID of the job the caller expects, if it knows it ("" if not): a
// snapshot of that job takes the caller's string rather than a copy.
func (t *internTable) decodeInfo(b []byte, id string) (*JobInfo, error) {
	info := &JobInfo{ID: id}
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
