package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"aimes/client"
)

// maxSubmitBody bounds a submit request's body (workload JSON included).
const maxSubmitBody = 64 << 20

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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, client.ErrorBody{Error: msg})
}

// writeAPIError maps registry errors onto HTTP statuses.
func writeAPIError(w http.ResponseWriter, err error) {
	var ae *apiError
	if errors.As(err, &ae) {
		writeError(w, ae.code, ae.msg)
		return
	}
	writeError(w, http.StatusInternalServerError, err.Error())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, tn Tenant) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining (shutting down); no new jobs are admitted")
		return
	}
	var req client.SubmitRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxSubmitBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "submit: bad request body: "+err.Error())
		return
	}
	rec, err := s.reg.submit(tn, &req)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	if s.logf != nil {
		s.logf("job %s: tenant %s submitted (state %s, shard %d)", rec.id, tn.Name, rec.job.State(), rec.job.Shard())
	}
	writeJSON(w, http.StatusCreated, s.reg.info(rec))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request, tn Tenant) {
	infos := s.reg.list(tn)
	sortInfos(infos)
	writeJSON(w, http.StatusOK, infos)
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
	writeJSON(w, http.StatusOK, s.reg.info(rec))
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
	writeJSON(w, http.StatusOK, s.reg.info(rec))
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
	s.met.render(w, s.env, s.reg.inflight())
}
