package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"aimes"
	"aimes/client"
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

// stream writes what sub reads to w as SSE until the client goes away, the
// daemon stops, or — job streams only — the job has ended and its last event
// and the terminal "done" snapshot were written. sub is a cursor over the
// shard logs, so nothing is held here beyond one batch: each batch is written
// and flushed once, after a "dropped" event with the cumulative count whenever
// the cursor found records already evicted. rec is the job whose events sub
// reads ("job" events, Seq as the SSE id), or nil for the environment-wide
// trace ("trace" events, no id).
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
	var dropped int64
	for {
		n, seq, done := sub.Read(buf[:])
		if d := sub.Dropped(); d > dropped {
			s.met.addSSEDropped(kind, d-dropped)
			dropped = d
			if writeEvent(w, "dropped", 0, client.Dropped{Count: d}) != nil {
				return
			}
		}
		for i, tr := range buf[:n] {
			ev := client.Event{Time: tr.Time.Duration(), Entity: tr.Entity, State: tr.State, Detail: tr.Detail}
			if rec != nil {
				ev.Seq, ev.Job = seq+int64(i), rec.id
			}
			if writeEvent(w, name, ev.Seq, ev) != nil {
				return
			}
		}
		if done && rec != nil {
			writeEvent(w, "done", 0, s.reg.info(rec))
		}
		f.Flush()
		if done {
			return
		}
		if n == len(buf) {
			continue
		}
		select {
		case <-sub.Ready():
		case <-heartbeat.C:
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		}
	}
}
