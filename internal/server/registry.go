package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"aimes"
	"aimes/client"
	"aimes/internal/skeleton"
)

// registry owns the daemon's job table: opaque job IDs → aimes.Job handles,
// persisting finished jobs in memory so a client that disconnects mid-run can
// reattach by ID and still collect the events and the final report. It is
// also the admission point where tenant quotas bite.
type registry struct {
	env *aimes.Environment
	met *metrics

	retain int // finished jobs kept before the oldest are evicted

	mu    sync.Mutex
	jobs  map[string]*jobRecord
	order []*jobRecord            // submission order, for List and retention
	live  map[string][]*jobRecord // tenant → live (non-final) jobs

	// wg tracks the per-job pump goroutines so Shutdown can wait for them
	// after the environment drains.
	wg sync.WaitGroup
}

type jobRecord struct {
	id        string
	tenant    string
	job       *aimes.Job
	submitted time.Time
	// settled, guarded by registry.mu, says the job's end has been
	// accounted: quota slot released, outcome counted.
	settled bool
}

func newRegistry(env *aimes.Environment, met *metrics, retain int) *registry {
	return &registry{
		env:    env,
		met:    met,
		retain: retain,
		jobs:   make(map[string]*jobRecord),
		live:   make(map[string][]*jobRecord),
	}
}

// apiError carries an HTTP status with a client-facing message.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{code: 400, msg: fmt.Sprintf(format, args...)}
}

func quotaExceeded(format string, args ...any) *apiError {
	return &apiError{code: 429, msg: fmt.Sprintf(format, args...)}
}

// jobConfig is the request's execution knobs as the in-process submission
// they stand for: every aimes.JobConfig field reachable over HTTP is set
// here and nowhere else.
func jobConfig(req *client.SubmitRequest) (aimes.JobConfig, error) {
	placement, err := client.ParsePlacement(req.Placement)
	if err != nil {
		return aimes.JobConfig{}, err
	}
	migrate, err := client.ParseMigrate(req.Migrate)
	if err != nil {
		return aimes.JobConfig{}, err
	}
	return aimes.JobConfig{
		StrategyConfig: req.Config,
		Strategy:       req.Strategy,
		Adaptive:       req.Adaptive,
		Placement:      placement,
		Shard:          req.Shard,
		Migrate:        migrate,
	}, nil
}

// submit admits one workload for tn: quota check and environment Submit
// form one critical section under the registry lock, so two racing
// submissions can never both squeeze under the same quota.
func (r *registry) submit(tn Tenant, req *client.SubmitRequest) (*jobRecord, error) {
	if len(req.Workload) == 0 {
		return nil, badRequest("submit: missing workload")
	}
	w, err := skeleton.ParseWorkload(req.Workload)
	if err != nil {
		return nil, badRequest("submit: %v", err)
	}
	cfg, err := jobConfig(req)
	if err != nil {
		return nil, badRequest("submit: %v", err)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if q := tn.Quota; q.MaxInFlight > 0 || q.MaxQueued > 0 {
		live := r.live[tn.Name]
		if q.MaxInFlight > 0 && len(live) >= q.MaxInFlight {
			r.met.rejected(tn.Name)
			return nil, quotaExceeded("tenant %q quota exceeded: %d jobs in flight (max %d)", tn.Name, len(live), q.MaxInFlight)
		}
		if q.MaxQueued > 0 {
			queued := 0
			for _, rec := range live {
				if rec.job.State() == aimes.JobQueued {
					queued++
				}
			}
			if queued >= q.MaxQueued {
				r.met.rejected(tn.Name)
				return nil, quotaExceeded("tenant %q quota exceeded: %d jobs queued awaiting admission (max %d)", tn.Name, queued, q.MaxQueued)
			}
		}
	}

	// context.Background(), NOT the request context: the job's lifetime is
	// the daemon's, and must survive the submitting HTTP request ending.
	j, err := r.env.Submit(context.Background(), w, cfg)
	if err != nil {
		return nil, badRequest("submit: %v", err)
	}
	rec := &jobRecord{
		id:        newJobID(),
		tenant:    tn.Name,
		job:       j,
		submitted: time.Now(),
	}
	r.jobs[rec.id] = rec
	r.order = append(r.order, rec)
	r.live[tn.Name] = append(r.live[tn.Name], rec)
	r.met.submitted(tn.Name)

	// One goroutine per job, the pump: it holds a Wait for the job's whole
	// life — on virtual-time shards Wait is what advances the engine, so
	// jobs make progress whether or not any client is attached — and settles
	// the job's accounts when it ends, if no handler did so first.
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_, _ = j.Wait(context.Background())
		r.settle(rec)
	}()
	return rec, nil
}

// settle accounts for rec's end exactly once: it releases the tenant's quota
// slot, bumps the outcome counters and trims retention. The pump runs it when
// Wait returns, but a client learns of the end from whichever handler first
// reports a final state, and may act on it at once — resubmit under
// MaxInFlight 1, read /metrics — so that handler settles first (info).
func (r *registry) settle(rec *jobRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec.settled {
		return
	}
	rec.settled = true
	live := slices.DeleteFunc(r.live[rec.tenant], func(lr *jobRecord) bool { return lr == rec })
	if r.live[rec.tenant] = live; len(live) == 0 {
		delete(r.live, rec.tenant)
	}
	r.met.finished(rec.tenant, rec.job.State(), rec.job.EventsDropped())
	r.trimLocked()
}

// info snapshots rec for a response or the terminal SSE event. A snapshot
// that says the job is over is never handed out before the job's accounts
// are settled.
func (r *registry) info(rec *jobRecord) client.JobInfo {
	info := rec.info()
	if info.Final {
		r.settle(rec)
	}
	return info
}

// trimLocked evicts the oldest finished jobs beyond the retention bound.
// Live jobs are never evicted. (DeleteFunc clears the vacated tail, so the
// evicted records are not kept reachable from the slice's spare capacity.)
func (r *registry) trimLocked() {
	excess := len(r.order) - r.retain
	if r.retain <= 0 || excess <= 0 {
		return
	}
	r.order = slices.DeleteFunc(r.order, func(rec *jobRecord) bool {
		if excess == 0 || !rec.job.State().Final() {
			return false
		}
		delete(r.jobs, rec.id)
		excess--
		return true
	})
}

// get resolves id for tn. Unknown IDs and other tenants' jobs are equally
// "not found" — job IDs are capability-like and existence is not leaked.
func (r *registry) get(tn Tenant, id string) *jobRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.jobs[id]
	if rec == nil || rec.tenant != tn.Name {
		return nil
	}
	return rec
}

// list snapshots tn's retained jobs, oldest submission first.
func (r *registry) list(tn Tenant) []client.JobInfo {
	r.mu.Lock()
	recs := make([]*jobRecord, 0, 16)
	for _, rec := range r.order {
		if rec.tenant == tn.Name {
			recs = append(recs, rec)
		}
	}
	r.mu.Unlock()
	out := make([]client.JobInfo, len(recs))
	for i, rec := range recs {
		out[i] = r.info(rec)
	}
	return out
}

// inflight counts live jobs per tenant (for /metrics gauges).
func (r *registry) inflight() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.live))
	for tn, recs := range r.live {
		out[tn] = len(recs)
	}
	return out
}

// info snapshots the job for the wire. The state is read first: states only
// move forward, so a job that turns final mid-snapshot at worst reports the
// earlier, still-consistent view.
func (rec *jobRecord) info() client.JobInfo {
	j := rec.job
	state := j.State()
	info := client.JobInfo{
		ID:            rec.id,
		Tenant:        rec.tenant,
		State:         state.String(),
		Final:         state.Final(),
		Shard:         j.Shard(),
		Namespace:     j.Namespace(),
		Migrated:      j.Migrated(),
		SubmittedAt:   rec.submitted,
		EventsDropped: j.EventsDropped(),
	}
	if state.Final() {
		if err := j.Err(); err != nil {
			info.Error = err.Error()
		}
		info.Report = j.Report()
	}
	return info
}

// newJobID mints an opaque, unguessable job handle.
func newJobID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: crypto/rand failed: %v", err))
	}
	return "j-" + hex.EncodeToString(b[:])
}

// sortInfos orders job snapshots by submission time then ID (stable for
// equal timestamps).
func sortInfos(infos []client.JobInfo) {
	sort.Slice(infos, func(i, k int) bool {
		if !infos[i].SubmittedAt.Equal(infos[k].SubmittedAt) {
			return infos[i].SubmittedAt.Before(infos[k].SubmittedAt)
		}
		return infos[i].ID < infos[k].ID
	})
}
