package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
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
// and Final carries the terminal snapshot including the report.
func (c *Client) Events(ctx context.Context, id string, from int64) (*EventStream, error) {
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
	req.Header.Set("Accept", "text/event-stream")
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
	s := &EventStream{ch: make(chan Event, 64), cancel: cancel}
	s.C = s.ch
	go func() {
		defer resp.Body.Close()
		defer close(s.ch)
		err := s.consume(ctx, bufio.NewReader(resp.Body))
		s.mu.Lock()
		if err != nil && ctx.Err() == nil {
			s.err = err
		}
		s.mu.Unlock()
	}()
	return s, nil
}

// consume parses the SSE wire format: "event:"/"data:" lines accumulate
// until a blank line dispatches them; ":" lines are heartbeat comments.
func (s *EventStream) consume(ctx context.Context, r *bufio.Reader) error {
	var event string
	var data strings.Builder
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if err := s.dispatch(ctx, event, data.String()); err != nil {
				if err == errStreamDone {
					return nil
				}
				return err
			}
			event = ""
			data.Reset()
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(strings.TrimPrefix(strings.TrimSpace(line[len("data:"):]), " "))
		}
	}
}

// errStreamDone signals a clean, server-terminated stream.
var errStreamDone = fmt.Errorf("done")

func (s *EventStream) dispatch(ctx context.Context, event, data string) error {
	switch event {
	case "job", "trace":
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("client: bad %s event %q: %w", event, data, err)
		}
		select {
		case s.ch <- ev:
		case <-ctx.Done():
			return ctx.Err()
		}
	case "dropped":
		var d Dropped
		if err := json.Unmarshal([]byte(data), &d); err != nil {
			return fmt.Errorf("client: bad dropped event %q: %w", data, err)
		}
		s.mu.Lock()
		s.dropped = d.Count
		s.mu.Unlock()
	case "done":
		var info JobInfo
		if err := json.Unmarshal([]byte(data), &info); err != nil {
			return fmt.Errorf("client: bad done event %q: %w", data, err)
		}
		s.mu.Lock()
		s.final = &info
		s.mu.Unlock()
		return errStreamDone // clean end; the server closes after done
	}
	return nil
}
