package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"aimes/client"
	"aimes/internal/bufpool"
	"aimes/internal/skeleton"
)

// maxSubmitBody bounds a submit request's body (workload JSON included).
const maxSubmitBody = 64 << 20

// bodies lends the buffers submit bodies are read into and replies encoded
// into.
var bodies bufpool.Pool

// infoSizeHint is about what one job snapshot takes with its report.
const infoSizeHint = 1024

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("POST /v1/jobs", s.tenant(s.handleSubmit))
	s.mux.Handle("GET /v1/jobs", s.tenant(s.handleList))
	s.mux.Handle("GET /v1/jobs/{id}", s.tenant(s.handleJob))
	s.mux.Handle("DELETE /v1/jobs/{id}", s.tenant(s.handleCancel))
	s.mux.Handle("GET /v1/jobs/{id}/events", s.tenant(s.handleJobEvents))
	s.mux.Handle("GET /v1/events", s.tenant(s.handleEnvEvents))
}

// tenant wraps a handler with bearer-token authentication.
func (s *Server) tenant(h func(http.ResponseWriter, *http.Request, Tenant)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tn, ok := s.auth.authenticate(r)
		if !ok {
			w.Header().Set("WWW-Authenticate", `Bearer realm="aimes-server"`)
			writeError(w, http.StatusUnauthorized, "missing or unknown bearer token")
			return
		}
		h(w, r, tn)
	})
}

// writeJSON writes body and the newline json.Encoder ends a value with; after
// an error encoding it, like json.Encoder, nothing. body is a pooled buffer,
// returned to the pool once written (w keeps none of it).
func writeJSON(w http.ResponseWriter, code int, body *[]byte, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err == nil {
		*body = append(*body, '\n')
		w.Write(*body)
	}
	bodies.Put(body)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	body := bodies.Get()
	*body = append(skeleton.AppendJSONString(append(*body, `{"error":`...), msg), '}')
	writeJSON(w, code, body, nil)
}

// writeInfo writes one job snapshot.
func writeInfo(w http.ResponseWriter, code int, info client.JobInfo) {
	body := bodies.Get()
	var err error
	*body, err = client.AppendJobInfo(*body, &info)
	writeJSON(w, code, body, err)
}

// writeAPIError maps registry errors onto HTTP statuses.
func writeAPIError(w http.ResponseWriter, err error) {
	var ae *apiError
	if errors.As(err, &ae) {
		writeError(w, ae.code, ae.Error())
		return
	}
	writeError(w, http.StatusInternalServerError, err.Error())
}

// handleSubmit admits a job and answers 201 with its snapshot or, when the
// request accepts text/event-stream, with the job's event stream: an opening
// "submitted" event carrying the snapshot, then what GET /v1/jobs/{id}/events
// sends from Seq 1.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, tn Tenant) {
	start := time.Now()
	rec := s.admit(w, r, tn)
	if rec == nil {
		return
	}
	if s.logf != nil {
		s.logf("job %s: tenant %s submitted (state %s, shard %d)", rec.id, tn.Name, rec.job.State(), rec.job.Shard())
	}
	info := s.reg.info(rec)
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.openStream(w, r, rec.job.Subscribe(0), rec, &info, start)
		return
	}
	writeInfo(w, http.StatusCreated, info)
}

// admit reads, parses and admits a submission, or answers the error and
// returns nil. The body buffer goes back to the pool before admit returns:
// nothing the admitted job holds aliases it.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, tn Tenant) *jobRecord {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining (shutting down); no new jobs are admitted")
		return nil
	}
	body := bodies.Get()
	defer bodies.Put(body) // the request's last reader is s.reg.submit
	var err error
	*body, err = readBody(w, r, *body)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("submit: request body larger than the limit of %d MiB", maxSubmitBody>>20))
		return nil
	case err != nil:
		writeError(w, http.StatusBadRequest, "submit: bad request body: "+err.Error())
		return nil
	}
	// req.Workload aliases body; wl, and every string in req, does not.
	req, wl, err := client.ParseSubmitRequest(*body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "submit: "+err.Error())
		return nil
	}
	rec, err := s.reg.submit(tn, wl, req)
	if err != nil {
		writeAPIError(w, err)
		return nil
	}
	return rec
}

// readBody appends a submit body, whole, to buf: at most maxSubmitBody bytes,
// and exactly its Content-Length when it declares one. buf grows as the bytes
// arrive, so a body that declares more than it sends costs about what it sent.
func readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	switch n := r.ContentLength; {
	case n > maxSubmitBody:
		return buf, &http.MaxBytesError{Limit: maxSubmitBody}
	case n >= 0:
		b, err := bufpool.Append(buf, r.Body, int(n))
		if err == nil && len(b) < len(buf)+int(n) {
			err = io.ErrUnexpectedEOF
		}
		return b, err
	}
	return bufpool.Append(buf, http.MaxBytesReader(w, r.Body, maxSubmitBody), maxSubmitBody+1)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request, tn Tenant) {
	infos := s.reg.list(tn)
	sortInfos(infos)
	body := bodies.Get()
	b := append(slices.Grow(*body, len(infos)*infoSizeHint+2), '[')
	var err error
	for i := range infos {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = client.AppendJobInfo(b, &infos[i]); err != nil {
			break
		}
	}
	*body = append(b, ']')
	writeJSON(w, http.StatusOK, body, err)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, tn Tenant) {
	rec := s.reg.get(tn, r.PathValue("id"))
	if rec == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	if waitSpec := r.URL.Query().Get("wait"); waitSpec != "" {
		timeout, err := parseWait(waitSpec)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case <-rec.job.Done():
		case <-timer.C: // long-poll timeout: report the non-final snapshot
		case <-r.Context().Done():
			return
		case <-s.stop:
		}
	}
	writeInfo(w, http.StatusOK, s.reg.info(rec))
}

// parseWait accepts a Go duration ("30s") or "1"/"true" for the default.
func parseWait(spec string) (time.Duration, error) {
	switch spec {
	case "1", "true":
		return 30 * time.Second, nil
	}
	d, err := time.ParseDuration(spec)
	if err != nil || d <= 0 || d > 10*time.Minute {
		return 0, errors.New("bad wait parameter (want a duration like 30s, at most 10m)")
	}
	return d, nil
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request, tn Tenant) {
	rec := s.reg.get(tn, r.PathValue("id"))
	if rec == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	reason := r.URL.Query().Get("reason")
	if reason == "" {
		reason = "canceled by client"
	}
	rec.job.Cancel(reason)
	if s.logf != nil {
		s.logf("job %s: tenant %s canceled (%s)", rec.id, tn.Name, reason)
	}
	writeInfo(w, http.StatusOK, s.reg.info(rec))
}

// handleJobEvents streams one job's events as SSE from ?from (or
// Last-Event-ID + 1): what the shard's trace log retains — the whole job,
// unless it is older than the log's window, when a "dropped" event says how
// many are gone — then live events, then a terminal "done" event with the
// final snapshot and report. A finished job replays the same way.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, tn Tenant) {
	rec := s.reg.get(tn, r.PathValue("id"))
	if rec == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	from := int64(0)
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad from parameter (want a sequence number)")
			return
		}
		from = n
	} else if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			from = n + 1
		}
	}

	s.stream(w, r, rec.job.Subscribe(from), rec)
}

// handleEnvEvents streams the environment-wide live trace
// (Environment.Subscribe): every shard's pilot and unit transitions from now
// on, until the client disconnects or the daemon stops.
func (s *Server) handleEnvEvents(w http.ResponseWriter, r *http.Request, tn Tenant) {
	s.stream(w, r, s.env.Subscribe(), nil)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	inflight, held := s.reg.counts()
	s.met.render(w, s.env, inflight, held)
}
