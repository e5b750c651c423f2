package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"aimes"
	"aimes/client"
	"aimes/internal/skeleton"
)

// writeEvent writes one Server-Sent Event with a JSON payload, unflushed. id
// is optional (>0 only).
func writeEvent(w io.Writer, name string, id int64, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	if id > 0 {
		if _, err := fmt.Fprintf(w, "id: %d\n", id); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
	return err
}

// appendEvent appends ev as the SSE event writeEvent(w, name, ev.Seq, ev)
// writes, byte for byte (TestAppendEventMatchesJSON), without the boxing,
// the reflection and the two Fprintf: a stream is made of these.
func appendEvent(dst []byte, name string, ev *client.Event) []byte {
	if ev.Seq > 0 {
		dst = append(strconv.AppendInt(append(dst, "id: "...), ev.Seq, 10), '\n')
	}
	dst = append(append(append(dst, "event: "...), name...), "\ndata: {"...)
	if ev.Seq != 0 {
		dst = append(strconv.AppendInt(append(dst, `"seq":`...), ev.Seq, 10), ',')
	}
	if ev.Job != "" {
		dst = append(skeleton.AppendJSONString(append(dst, `"job":`...), ev.Job), ',')
	}
	dst = strconv.AppendInt(append(dst, `"time":`...), int64(ev.Time), 10)
	dst = skeleton.AppendJSONString(append(dst, `,"entity":`...), ev.Entity)
	dst = skeleton.AppendJSONString(append(dst, `,"state":`...), ev.State)
	if ev.Detail != "" {
		dst = skeleton.AppendJSONString(append(dst, `,"detail":`...), ev.Detail)
	}
	return append(dst, "}\n\n"...)
}

// eventSizeHint is about what one encoded event takes: a job ID, an entity, a
// state and sometimes a detail come to 130–190 bytes.
const eventSizeHint = 192

// stream writes what sub reads to w as SSE until the client goes away, the
// daemon stops, or — job streams only — the job has ended and its last event
// and the terminal "done" snapshot were written. sub is a cursor over the
// shard logs, so nothing is held here beyond one batch (at most 64 records):
// each is encoded into one reused buffer, after a "dropped" event with the
// cumulative count whenever the cursor found records already evicted, and
// costs one Write, one Flush and one metrics update, whatever its size. rec
// is the job whose events sub reads ("job" events, Seq as the SSE id), or nil
// for the environment-wide trace ("trace" events, no id).
func (s *Server) stream(w http.ResponseWriter, r *http.Request, sub *aimes.TraceSub, rec *jobRecord) {
	defer sub.Close()
	f, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "server: response writer cannot stream (no http.Flusher)")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	f.Flush()

	name, kind := "trace", "env"
	if rec != nil {
		name, kind = "job", "job"
	}
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	var buf [64]aimes.TraceRecord
	var out bytes.Buffer // one iteration's bytes: written and flushed once
	var dropped int64
	for {
		n, seq, done := sub.Read(buf[:])
		c := sseCounters{events: int64(n), flushes: 1}
		if d := sub.Dropped(); d > dropped {
			c.dropped, dropped = d-dropped, d
			writeEvent(&out, "dropped", 0, client.Dropped{Count: d})
		}
		out.Grow(n * eventSizeHint) // one allocation for a stream's largest batch, not a doubling series
		b := out.AvailableBuffer()
		for i, tr := range buf[:n] {
			ev := client.Event{Time: tr.Time.Duration(), Entity: tr.Entity, State: tr.State, Detail: tr.Detail}
			if rec != nil {
				ev.Seq, ev.Job = seq+int64(i), rec.id
			}
			b = appendEvent(b, name, &ev)
		}
		out.Write(b)
		if done && rec != nil {
			writeEvent(&out, "done", 0, s.reg.info(rec))
		}
		if c.bytes = int64(out.Len()); c.bytes > 0 {
			if _, err := w.Write(out.Bytes()); err != nil {
				return
			}
			f.Flush()
			s.met.addSSE(kind, c)
			out.Reset()
		}
		if done {
			return
		}
		if n == len(buf) {
			continue
		}
		select {
		case <-sub.Ready():
		case <-heartbeat.C:
			out.WriteString(": ping\n\n")
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		}
	}
}
