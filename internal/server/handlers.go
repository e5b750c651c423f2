package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"aimes/client"
	"aimes/internal/skeleton"
)

// maxSubmitBody bounds a submit request's body (workload JSON included).
const maxSubmitBody = 64 << 20

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
// an error encoding it, like json.Encoder, nothing.
func writeJSON(w http.ResponseWriter, code int, body []byte, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err == nil {
		w.Write(append(body, '\n'))
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, append(skeleton.AppendJSONString([]byte(`{"error":`), msg), '}'), nil)
}

// writeInfo writes one job snapshot.
func writeInfo(w http.ResponseWriter, code int, info client.JobInfo) {
	body, err := client.AppendJobInfo(make([]byte, 0, infoSizeHint), &info)
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

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, tn Tenant) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining (shutting down); no new jobs are admitted")
		return
	}
	body, err := readBody(w, r)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("submit: request body larger than the limit of %d MiB", maxSubmitBody>>20))
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "submit: bad request body: "+err.Error())
		return
	}
	req, wl, err := client.ParseSubmitRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "submit: "+err.Error())
		return
	}
	rec, err := s.reg.submit(tn, wl, req)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	if s.logf != nil {
		s.logf("job %s: tenant %s submitted (state %s, shard %d)", rec.id, tn.Name, rec.job.State(), rec.job.Shard())
	}
	writeInfo(w, http.StatusCreated, s.reg.info(rec))
}

// readBody reads a submit body whole, at most maxSubmitBody bytes of it: into
// a buffer of its Content-Length when it declares one, else as it comes.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	switch n := r.ContentLength; {
	case n > maxSubmitBody:
		return nil, &http.MaxBytesError{Limit: maxSubmitBody}
	case n >= 0:
		b := make([]byte, n)
		_, err := io.ReadFull(r.Body, b)
		return b, err
	}
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBody))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request, tn Tenant) {
	infos := s.reg.list(tn)
	sortInfos(infos)
	body := append(make([]byte, 0, len(infos)*infoSizeHint+2), '[')
	var err error
	for i := range infos {
		if i > 0 {
			body = append(body, ',')
		}
		if body, err = client.AppendJobInfo(body, &infos[i]); err != nil {
			break
		}
	}
	writeJSON(w, http.StatusOK, append(body, ']'), err)
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
