// Package server is the aimes-server daemon core: a long-lived,
// multi-tenant HTTP front end over one sharded aimes.Environment. It
// exposes the async Job API remotely — submit, wait (long-poll), cancel,
// list — streams per-job events and the environment-wide trace as
// Server-Sent Events read straight from the shards' trace logs (replay from
// any sequence number the log still retains, exact drop accounting), enforces
// per-tenant admission quotas behind static bearer-token auth, and serves
// hand-rolled Prometheus text metrics on /metrics.
//
// The HTTP surface (all /v1 routes require "Authorization: Bearer <token>"):
//
//	POST   /v1/jobs             submit (client.SubmitRequest) -> 201 client.JobInfo;
//	                            with Accept: text/event-stream, 201 and the job's
//	                            SSE stream: "submitted" (client.JobInfo), then
//	                            what GET /v1/jobs/{id}/events sends
//	GET    /v1/jobs             list the tenant's retained jobs
//	GET    /v1/jobs/{id}        job snapshot; ?wait=30s long-polls for finality
//	DELETE /v1/jobs/{id}        cancel (?reason=...)
//	GET    /v1/jobs/{id}/events SSE job event stream; ?from=SEQ resumes
//	GET    /v1/events           SSE environment-wide trace stream
//	GET    /metrics             Prometheus text exposition (no auth)
//	GET    /healthz             liveness (no auth)
//
// Jobs are registered under opaque IDs and retained in memory after
// finishing, so a client that disconnects mid-run can reattach by ID and
// still collect events (replayed by sequence number from the shard's trace
// log, which keeps its most recent 2^20 records) and the final report.
package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"aimes"
)

// Config configures New. Env and Auth are required.
type Config struct {
	// Env is the daemon's environment. The server owns its lifecycle from
	// here on: Shutdown drains and closes it.
	Env *aimes.Environment
	// Auth maps bearer tokens to tenants and quotas.
	Auth *Auth

	// Retain bounds how many jobs (live + finished) the registry keeps
	// before evicting the oldest finished ones (default 4096).
	Retain int
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Server is the daemon. Construct with New, mount Handler on an
// http.Server, and call Shutdown for a graceful drain.
type Server struct {
	env  *aimes.Environment
	auth *Auth
	reg  *registry
	met  *metrics
	mux  *http.ServeMux
	logf func(string, ...any) // nil: log nothing, and box no arguments

	draining atomic.Bool
	stop     chan struct{} // closed after drain: terminates SSE streams
	stopOnce sync.Once
	beat     heartbeat // the waiting SSE streams' pings
}

// New builds a server around cfg.Env.
func New(cfg Config) (*Server, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("server: Config.Env is required")
	}
	if cfg.Auth == nil || len(cfg.Auth.tenants) == 0 {
		return nil, fmt.Errorf("server: Config.Auth with at least one tenant is required")
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 4096
	}
	s := &Server{
		env:  cfg.Env,
		auth: cfg.Auth,
		met:  newMetrics(),
		mux:  http.NewServeMux(),
		logf: cfg.Logf,
		stop: make(chan struct{}),
	}
	s.reg = newRegistry(cfg.Env, s.met, cfg.Retain)
	s.routes()
	return s, nil
}

// Handler is the daemon's HTTP surface, ready to mount on an http.Server.
func (s *Server) Handler() http.Handler { return s.met.timed(s.mux) }

// Shutdown drains the daemon gracefully: new submissions are refused with
// 503 immediately, every in-flight job runs to its final state
// (Environment.Drain — the daemon's own per-job waiters keep pumping, so
// attached SSE clients still receive their terminal events), and then the
// environment is closed and remaining event streams are torn down. ctx
// bounds the drain; on expiry the environment is closed anyway and the
// context error returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.env.Drain(ctx)
	if err == nil {
		// All jobs final: wait for the pumps to settle their accounts.
		s.reg.wg.Wait()
	}
	s.stopOnce.Do(func() {
		close(s.stop)
		s.beat.stop()
	})
	if cerr := s.env.Close(); err == nil {
		err = cerr
	}
	return err
}
