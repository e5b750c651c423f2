package backend

import (
	"fmt"
	"math/rand"
	"time"

	"aimes/internal/bundle"
	"aimes/internal/core"
	"aimes/internal/netsim"
	"aimes/internal/pilot"
	"aimes/internal/saga"
	"aimes/internal/shard"
	"aimes/internal/sim"
	"aimes/internal/site"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// Local is the in-process execution backend: one complete simulation stack —
// engine, testbed, SAGA session, bundle, execution manager — behind the
// Backend seam. It reproduces the pre-seam shard trajectories bit for bit:
// the same construction order, the same single rand.Rand feeding derivation
// and enactment, the same namespace sequence, so a single-shard environment
// on the local backend is identical to every release before the seam
// existed. It also hosts the worker process's side of the wire protocol
// (Serve wraps a Local), which is what makes local and worker runs of the
// same pinned workload report identically.
type Local struct {
	id      int
	eng     *sim.Sim
	testbed *site.Testbed
	bndl    *bundle.Bundle
	mgr     *core.Manager
	rng     *rand.Rand
	sink    Sink

	jobSeq int
	execs  map[int]*core.Execution
	// traces keeps each live job's way into the sink so injected chaos
	// (chaos.go) can log applied faults into the job traces; surgeSeq numbers
	// emergent surge jobs; sever, when set by a worker serve loop, cuts the
	// hosting transport for the kill-worker action.
	traces   map[int]*jobTrace
	surgeSeq int
	sever    func()
}

var _ Backend = (*Local)(nil)

// emergentWarmup is how long a stack with any emergent site runs its
// background load before it accepts work. Every job time on such a
// shard is offset by it. This is the warm-up rule for every consumer: the
// scenario runner and the experiment harness get it by building an
// Environment.
const emergentWarmup = 72 * time.Hour

// NewLocal builds one shard stack, and is the only place outside tests that
// wires one. Shard construction order (testbed, SAGA adaptors, bundle,
// manager RNG) is load-bearing for determinism — change it and every golden
// trajectory moves.
func NewLocal(cfg Config, sink Sink) (*Local, error) {
	eng := sim.NewSim()
	configs := cfg.Sites
	if configs == nil {
		configs = site.DefaultTestbed()
	}
	tb, err := site.NewTestbed(eng, configs, sim.NewRNG(cfg.Seed))
	if err != nil {
		return nil, err
	}
	sess := saga.NewSession()
	for _, s := range tb.Sites() {
		sess.Register(saga.NewBatchAdaptor(eng, s))
	}
	b := bundle.New(tb.Sites())
	links := func(resource string) *netsim.Link {
		s := tb.Site(resource)
		if s == nil {
			return nil
		}
		return s.Link()
	}
	pcfg := pilot.DefaultConfig()
	if cfg.Pilot != nil {
		pcfg = *cfg.Pilot
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x414D4553)) // "AMES"
	l := &Local{
		id: cfg.Shard, eng: eng, testbed: tb, bndl: b,
		mgr:    core.NewManager(eng, b, sess, links, pcfg, rng),
		rng:    rng,
		sink:   sink,
		execs:  make(map[int]*core.Execution),
		traces: make(map[int]*jobTrace),
	}
	// Emergent queues need a warm-up so the background load has filled the
	// machines before the first job arrives; otherwise pilots land on empty
	// systems. A wall-clock environment starts pacing after this returns.
	for _, c := range configs {
		if c.Mode == site.Emergent {
			eng.RunUntil(eng.Now().Add(emergentWarmup))
			break
		}
	}
	return l, nil
}

// Bundle exposes the shard's resource bundle (in-process callers only; a
// worker shard's bundle lives in the worker).
func (l *Local) Bundle() *bundle.Bundle { return l.bndl }

// Engine exposes the shard's engine (bundle monitors attach here, and a
// wall-clock shard's pacer drives it).
func (l *Local) Engine() *sim.Sim { return l.eng }

// jobTrace is one job's trace.Sink: every record the job's execution, pilots
// and units write goes straight to Sink.JobTrace under the job's key and
// namespace. Nothing is kept here — the report is accumulated, not replayed
// (core.buildReport) — so the shard's log is a record's only copy.
type jobTrace struct {
	sink Sink
	key  int
	ns   string
}

func (j *jobTrace) Record(t sim.Time, entity, state, detail string) {
	j.sink.JobTrace(j.key, j.ns, trace.Record{Time: t, Entity: entity, State: state, Detail: detail})
}

// Enact implements Backend. The internal order — resolve, namespace, trace
// sink, MIGRATED record, prepare, enact, sequence bump — mirrors the pre-seam
// enactment exactly.
func (l *Local) Enact(d *Descriptor) (*Enacted, error) {
	s, err := l.mgr.Resolve(&d.Descriptor)
	if err != nil {
		return nil, err
	}
	ns := shard.Namespace(l.id, l.jobSeq+1)
	key := d.Key
	rec := &jobTrace{sink: l.sink, key: key, ns: ns}
	if d.MigratedFrom >= 0 {
		rec.Record(l.eng.Now(), "em", trace.StateMigrated, fmt.Sprintf("from s%d", d.MigratedFrom))
	}

	// The prepared→enacted crossing stays explicit: right up to Enact the job
	// held no engine state, which is why queued jobs can migrate between
	// backends.
	exec, err := l.mgr.Prepare(d.Workload, s, core.ExecOptions{Recorder: rec, Namespace: ns, Adaptive: d.Adaptive})
	if err != nil {
		return nil, err
	}
	if err := exec.Enact(); err != nil {
		return nil, err
	}
	l.jobSeq++
	l.execs[key] = exec
	l.traces[key] = rec
	exec.OnComplete(func(r *core.Report) {
		delete(l.execs, key)
		delete(l.traces, key)
		l.sink.JobDone(key, r)
	})
	return &Enacted{Namespace: ns, Strategy: s}, nil
}

// Step implements Backend.
func (l *Local) Step(max int) (int, bool, error) {
	fired := l.eng.StepN(max)
	return fired, fired < max, nil
}

// Cancel implements Backend.
func (l *Local) Cancel(key int, reason string) error {
	if exec, ok := l.execs[key]; ok {
		exec.Cancel(reason)
	}
	return nil
}

// Incomplete implements Backend.
func (l *Local) Incomplete(key int) error {
	exec, ok := l.execs[key]
	if !ok {
		return fmt.Errorf("backend: no enacted execution for job %d", key)
	}
	return exec.IncompleteError()
}

// Feedback implements Backend.
func (l *Local) Feedback(r *core.Report) error {
	l.mgr.FeedbackWaits(r)
	return nil
}

// Derive implements Backend.
func (l *Local) Derive(w *skeleton.Workload, cfg core.StrategyConfig) (core.Strategy, error) {
	return core.Derive(w, l.bndl, cfg, l.rng)
}

// Runnable implements Backend: the engine's own answer.
func (l *Local) Runnable() bool { return l.eng.Runnable() }

// Dead implements Backend: an in-process stack never dies.
func (l *Local) Dead() bool { return false }

// Close implements Backend (a no-op: the stack is garbage).
func (l *Local) Close() error { return nil }
