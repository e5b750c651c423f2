// Package saga is the interoperability layer of the middleware, modeled on
// RADICAL-SAGA (the reference implementation of the OGF SAGA standard): a
// uniform job-submission API with per-resource adaptors. The pilot system
// submits pilot jobs through this layer without knowing whether the target is
// a simulated PBS/Slurm machine or a stochastic queue model.
package saga

import (
	"fmt"
	"time"
)

// State enumerates SAGA job states.
type State int

// SAGA job states.
const (
	New      State = iota // constructed, not yet accepted
	Pending               // accepted by the resource manager, queued
	Running               // executing on the resource
	Done                  // completed normally
	Canceled              // canceled by the client
	Failed                // terminated abnormally (includes walltime kills)
)

// Final reports whether the state is terminal.
func (s State) Final() bool { return s == Done || s == Canceled || s == Failed }

// Description is a SAGA-style job description. Cores are converted to whole
// nodes by resource adaptors according to site geometry.
type Description struct {
	// Cores is the total core request.
	Cores int
	// Walltime is the requested (and enforced) time limit.
	Walltime time.Duration
	// Runtime is the payload's actual compute duration; for pilot agents it
	// exceeds Walltime, meaning "run until killed or canceled".
	Runtime time.Duration
	// ID, when set, is the ID the caller expects the job to get
	// (Service.NextSeq), in storage of its own. The service names the job
	// itself either way, and uses this string only when it is that name.
	ID string
}

// Validate reports a descriptive error for malformed descriptions.
func (d Description) Validate() error {
	if d.Cores <= 0 {
		return fmt.Errorf("saga: description requests %d cores", d.Cores)
	}
	if d.Walltime <= 0 {
		return fmt.Errorf("saga: description requests walltime %v", d.Walltime)
	}
	if d.Runtime < 0 {
		return fmt.Errorf("saga: description has negative runtime %v", d.Runtime)
	}
	return nil
}

// Observer follows a job's state transitions. JobState runs on engine
// callbacks, in transition order.
type Observer interface {
	JobState(j *Job, state State)
}

// Service submits jobs to one resource.
type Service interface {
	// Resource names the target resource.
	Resource() string
	// Submit accepts a job for execution into j, an unsubmitted (zero) Job
	// the caller owns and keeps until the job is final. The observer (may be
	// nil) sees every subsequent state change. Submit returns an error for
	// invalid or unsatisfiable descriptions.
	Submit(j *Job, d Description, obs Observer) error
	// NextSeq is the sequence number of the next job the service accepts,
	// which names it (AppendJobID), for callers that cut the IDs of many
	// jobs from one string (Description.ID).
	NextSeq() int
	// Cancel terminates a job. It reports false for unknown or already
	// terminal jobs.
	Cancel(j *Job) bool
}

// Session is a registry of services, the entry point mirroring a SAGA
// session: one session, many resource endpoints.
type Session struct {
	services map[string]Service
	order    []string
}

// NewSession returns an empty session.
func NewSession() *Session {
	return &Session{services: make(map[string]Service)}
}

// Register adds a service. It panics on duplicate resource names, which
// indicate misconfiguration.
func (s *Session) Register(svc Service) {
	name := svc.Resource()
	if _, dup := s.services[name]; dup {
		panic(fmt.Sprintf("saga: duplicate service %q", name))
	}
	s.services[name] = svc
	s.order = append(s.order, name)
}

// Service returns the service for a resource, or an error naming the known
// resources.
func (s *Session) Service(resource string) (Service, error) {
	if svc, ok := s.services[resource]; ok {
		return svc, nil
	}
	return nil, fmt.Errorf("saga: unknown resource %q (known: %v)", resource, s.order)
}
