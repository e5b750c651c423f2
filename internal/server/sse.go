package server

import (
	"net/http"
	"slices"
	"strconv"
	"time"

	"aimes"
	"aimes/client"
	"aimes/internal/bufpool"
)

// appendEvent appends ev as an SSE event named name, its id ev.Seq when set
// and its data what json.Marshal writes for ev: a stream is made of these.
func appendEvent(dst []byte, name string, ev *client.Event) []byte {
	if ev.Seq > 0 {
		dst = append(strconv.AppendInt(append(dst, "id: "...), ev.Seq, 10), '\n')
	}
	dst = append(append(append(dst, "event: "...), name...), "\ndata: "...)
	return append(client.AppendEvent(dst, ev), "\n\n"...)
}

// batches lends the streams their batch buffers, kept apart from bodies: a
// batch of 64 events is ten times the size of a reply.
var batches bufpool.Pool

// eventSizeHint is about what one encoded event takes: a job ID, an entity, a
// state and sometimes a detail come to 130–190 bytes.
const eventSizeHint = 192

// stream writes what sub reads to w as SSE until the client goes away, the
// daemon stops, or — job streams only — the job has ended and its last event
// and the terminal "done" snapshot were written. sub is a cursor over the
// shard logs, so nothing is held here beyond one batch (at most 64 records):
// each is encoded into one buffer, lent by the pool for the stream's life,
// after a "dropped" event with the cumulative count whenever the cursor found
// records already evicted, and costs one Write, one Flush and one metrics
// update, whatever its size. rec is the job whose events sub reads ("job"
// events, Seq as the SSE id), or nil for the environment-wide trace ("trace"
// events, no id).
func (s *Server) stream(w http.ResponseWriter, r *http.Request, sub *aimes.TraceSub, rec *jobRecord) {
	s.openStream(w, r, sub, rec, nil, time.Time{})
}

// openStream is stream, opened by a submission when submitted is not nil: the
// status is 201 and the first batch starts with a "submitted" event carrying
// the admission snapshot. The request's duration, from start, is observed as
// that batch is flushed — the submit's answer — not when the job ends.
func (s *Server) openStream(w http.ResponseWriter, r *http.Request, sub *aimes.TraceSub, rec *jobRecord, submitted *client.JobInfo, start time.Time) {
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
	if submitted == nil {
		w.WriteHeader(http.StatusOK)
		f.Flush()
	} else {
		w.WriteHeader(http.StatusCreated) // flushed with the snapshot
	}

	name, kind := "trace", "env"
	if rec != nil {
		name, kind = "job", "job"
	}
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	var buf [64]aimes.TraceRecord
	out := batches.Get() // one iteration's bytes: written and flushed once
	defer batches.Put(out)
	var dropped int64
	for {
		n, seq, done := sub.Read(buf[:])
		c := sseCounters{events: int64(n), flushes: 1}
		b := slices.Grow(*out, n*eventSizeHint+infoSizeHint) // room for the largest batch and the end
		if submitted != nil {
			if e, err := client.AppendJobInfo(append(b, "event: submitted\ndata: "...), submitted); err == nil {
				b = append(e, "\n\n"...)
			}
		}
		if d := sub.Dropped(); d > dropped {
			c.dropped, dropped = d-dropped, d
			b = append(strconv.AppendInt(append(b, "event: dropped\ndata: {\"count\":"...), d, 10), "}\n\n"...)
		}
		for i, tr := range buf[:n] {
			ev := client.Event{Time: tr.Time.Duration(), Entity: tr.Entity, State: tr.State, Detail: tr.Detail}
			if rec != nil {
				ev.Seq, ev.Job = seq+int64(i), rec.id
			}
			b = appendEvent(b, name, &ev)
		}
		if done && rec != nil {
			info := s.reg.info(rec) // left out if json cannot encode it (a NaN)
			if e, err := client.AppendJobInfo(append(b, "event: done\ndata: "...), &info); err == nil {
				b = append(e, "\n\n"...)
			}
		}
		*out = b[:0]
		if c.bytes = int64(len(b)); c.bytes > 0 {
			if submitted != nil { // before the client can read its answer
				s.met.observe(r.Pattern, time.Since(start))
				submitted = nil
			}
			if _, err := w.Write(b); err != nil {
				return
			}
			f.Flush()
			s.met.addSSE(kind, c)
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
			*out = append(*out, ": ping\n\n"...)
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		}
	}
}
