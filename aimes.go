// Package aimes is a Go reproduction of the AIMES middleware from
// "Integrating Abstractions to Enhance the Execution of Distributed
// Applications" (Turilli et al., IPDPS 2016, arXiv:1504.04720).
//
// It integrates four abstractions for executing many-task applications on
// multiple dynamic resources:
//
//   - Skeletons describe applications (stages, tasks, durations, files),
//   - Bundles characterize resources (query, predict, monitor, discover),
//   - Pilots decouple resource acquisition from task execution, and
//   - Execution Strategies make the coupling decisions explicit: binding,
//     unit scheduler, pilot count, pilot size, walltime, resource choice.
//
// The execution substrate is simulated: batch queues with heavy-tailed
// waits (emergent from a full scheduler simulation or drawn from calibrated
// models), WAN links for staging, and per-resource submission overheads.
// Everything runs on a deterministic discrete-event engine, so experiments
// that took the authors a year of production time replay in milliseconds —
// or, with that engine held to the wall clock, in real time.
//
// # Quick start
//
//	env, err := aimes.NewEnv(aimes.WithSeed(42))
//	if err != nil { ... }
//	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(128, aimes.UniformDuration()), 42)
//	if err != nil { ... }
//	job, err := env.Submit(ctx, w, aimes.JobConfig{StrategyConfig: aimes.StrategyConfig{
//		Binding:   aimes.LateBinding,
//		Scheduler: aimes.SchedBackfill,
//		Pilots:    3,
//	}})
//	if err != nil { ... }
//	report, err := job.Wait(ctx)
//	report.WriteSummary(os.Stdout)
//
// # Concurrent jobs
//
// An Environment is multi-tenant: Submit enacts a workload and returns an
// asynchronous Job handle immediately, so many workloads run concurrently
// across the environment's parallel simulation shards:
//
//	j1, _ := env.Submit(ctx, w1, aimes.JobConfig{StrategyConfig: cfg})
//	j2, _ := env.Submit(ctx, w2, aimes.JobConfig{StrategyConfig: cfg})
//	go consume(j1.Events()) // live pilot/unit/strategy transitions
//	r1, _ := j1.Wait(ctx)
//	r2, _ := j2.Wait(ctx)
//
// Time advances while any goroutine blocks in Job.Wait (whoever waits, pumps
// — so N tenants need no dedicated driver); with WithRealTime the same engine
// is held to the wall clock instead, and jobs complete with nobody waiting.
// RunStaged is the one helper over Submit+Wait: it executes a multistage
// workload stage by stage, feeding observed queue waits back between stages.
//
// # Sharding
//
// A virtual-time Environment is partitioned into parallel simulation shards
// (WithShards, default runtime.GOMAXPROCS(0)): each shard is a complete,
// independent engine stack, so jobs placed on different shards execute truly
// in parallel with no shared engine lock. JobConfig.Placement selects
// round-robin (default), least-loaded by weighted expected work, or pinned
// placement; pin jobs that need cross-run determinism — same seed + same
// per-shard submission order reproduces identical reports regardless of
// other shards' traffic. With WithWorkStealing a skewed tenant mix still
// saturates the hardware: still-queued jobs migrate to less-loaded shards
// through a migration-safe handoff, while pinned tenants' shards stay
// sealed against migrants.
//
// # Backends
//
// Each shard runs on an execution backend — the narrow seam between the
// environment's orchestration (placement, admission, stealing, waiting) and
// the shard's engine stack. BackendLocal (the default) runs shards
// in-process; BackendWorker (WithWorkerPool) runs each shard out of process —
// a child OS process on stdio or a connection to a TCP worker host — speaking
// a length-framed protocol whose codec is negotiated at connect (compact
// binary by default, JSON on request; see WithWireCodec), so a multi-tenant
// workload scales past one process's heap and GC. The same seeded, pinned
// workload produces identical reports on both backends; see WithWorkerPool
// for the caveats.
//
// See examples/ for complete programs and cmd/aimes-experiments for the paper
// reproduction.
package aimes

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aimes/internal/backend"
	"aimes/internal/bundle"
	"aimes/internal/core"
	"aimes/internal/model"
	"aimes/internal/pilot"
	"aimes/internal/shard"
	"aimes/internal/site"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// Re-exported application (skeleton) types.
type (
	// AppSpec declares a skeleton application.
	AppSpec = skeleton.AppSpec
	// StageSpec declares one stage.
	StageSpec = skeleton.StageSpec
	// IterationSpec repeats stage blocks.
	IterationSpec = skeleton.IterationSpec
	// Spec is a scalar distribution/function specification.
	Spec = skeleton.Spec
	// Workload is a generated, concrete application.
	Workload = skeleton.Workload
	// Mapping selects inter-stage data wiring.
	Mapping = skeleton.Mapping
)

// Re-exported skeleton constructors and constants.
var (
	// BagOfTasks builds the paper's experimental workload.
	BagOfTasks = skeleton.BagOfTasks
	// UniformDuration is the 15-minute constant task duration.
	UniformDuration = skeleton.UniformDuration
	// GaussianDuration is the truncated Gaussian duration of Table I.
	GaussianDuration = skeleton.GaussianDuration
	// GenerateWorkload materializes an AppSpec with a seed.
	GenerateWorkload = skeleton.Generate
	// ParseAppJSON reads an AppSpec from JSON.
	ParseAppJSON = skeleton.ParseJSON
	// ParseAppText reads an AppSpec from the flat key = value config format.
	ParseAppText = skeleton.ParseText
	// ParseWorkloadJSON reads a concrete workload from the middleware
	// interchange format written by Workload.WriteMiddlewareJSON.
	ParseWorkloadJSON = skeleton.ParseWorkloadJSON
)

// Skeleton spec helpers.
var (
	ConstantSpec    = skeleton.Constant
	UniformSpec     = skeleton.Uniform
	TruncNormalSpec = skeleton.TruncNormal
	LinearOfSpec    = skeleton.LinearOf
)

// Inter-stage mappings.
const (
	MapExternal = skeleton.MapExternal
	MapOneToOne = skeleton.MapOneToOne
	MapAllToAll = skeleton.MapAllToAll
	MapGather   = skeleton.MapGather
	MapScatter  = skeleton.MapScatter
)

// Re-exported strategy types (the paper's primary contribution).
type (
	// Strategy is a fully derived execution strategy.
	Strategy = core.Strategy
	// StrategyConfig holds the derivation knobs.
	StrategyConfig = core.StrategyConfig
	// Report is the instrumented outcome: TTC and its Tw/Tx/Ts components.
	Report = core.Report
	// Binding selects early or late task-to-pilot binding.
	Binding = core.Binding
	// SchedulerKind selects the unit scheduler.
	SchedulerKind = core.SchedulerKind
	// Selection selects the resource-selection policy.
	Selection = core.Selection
	// AdaptiveConfig enables runtime strategy adaptation.
	AdaptiveConfig = core.AdaptiveConfig
)

// ChoosePilotCount exposes the execution manager's semi-empirical pilot-
// count heuristic (requires primed bundle wait history).
var ChoosePilotCount = core.ChoosePilotCount

// Strategy decision values.
const (
	EarlyBinding = core.EarlyBinding
	LateBinding  = core.LateBinding

	SchedDirect     = core.SchedDirect
	SchedRoundRobin = core.SchedRoundRobin
	SchedBackfill   = core.SchedBackfill

	SelectRandom          = core.SelectRandom
	SelectByPredictedWait = core.SelectByPredictedWait
	SelectFixed           = core.SelectFixed
)

// Re-exported resource types.
type (
	// SiteConfig describes one simulated resource.
	SiteConfig = site.Config
	// Bundle aggregates resource characterizations.
	Bundle = bundle.Bundle
	// Resource is one bundle entry.
	Resource = bundle.Resource
	// ComputeInfo is an on-demand compute query result.
	ComputeInfo = bundle.ComputeInfo
	// Monitor polls bundles for threshold subscriptions.
	Monitor = bundle.Monitor
	// Condition is a monitoring threshold predicate.
	Condition = bundle.Condition
	// MonitorEvent notifies subscribers of sustained threshold crossings.
	MonitorEvent = bundle.Event
	// PilotConfig tunes middleware overheads and failure injection.
	PilotConfig = pilot.Config
	// Recorder holds the execution trace.
	Recorder = trace.Recorder
	// TraceRecord is one timestamped state transition in a trace.
	TraceRecord = trace.Record
)

// DefaultTestbed returns the five-resource simulated testbed standing in
// for the paper's XSEDE and NERSC machines.
var DefaultTestbed = site.DefaultTestbed

// Environment is a ready-to-use multi-tenant execution environment,
// partitioned into one or more parallel simulation shards. Each shard runs
// on an execution backend — a complete, independent stack (engine, resource
// testbed, SAGA session, bundle, execution manager) behind the narrow
// Backend seam, either in-process (BackendLocal, the default) or out of
// process (BackendWorker, see WithWorkerPool) — so jobs placed on different
// shards execute truly in parallel with no shared engine lock. Submit
// places jobs onto shards (JobConfig.Placement), and every job's trace is
// stored once, in its shard's log; Recorder and ShardRecorder are read-time
// views over those logs. Submit/Wait/Cancel are safe for concurrent use from
// multiple goroutines.
//
// The Environment itself is the composition root and the orchestrator —
// placement (placement.go), work stealing (steal.go) and the cost-model glue
// between them — over three owners, each of one decision: every shard's
// admission gate (admission.go: may this job enact now?), the worker fleet
// (fleet.go: what happens when a worker dies?) and the trace hub
// (tracehub.go: where does a record live, and who reads it?).
type Environment struct {
	shards  []*shardEnv
	picker  *shard.Picker
	stealer *shard.Stealer
	kind    BackendKind

	// model is the analytical cost-model twin (internal/model): per-shard
	// EWMA fits of drain rate, queue wait and event demand, refitted on
	// every completion and consulted by predictive placement, the migration
	// benefit gate, and admission-window sizing. Always non-nil.
	model *model.CostModel

	// fleet owns the worker sessions and their recovery; nil on the local
	// backend, whose shards cannot die.
	fleet *fleet

	// trace holds every shard's log, the one copy of every trace record.
	trace traceHub

	// resources is the testbed site names in registration order — identical
	// on every shard and backend, so validation never crosses the seam.
	resources []string

	// mirror lazily builds a local stack mirroring the workers' site
	// configuration, backing Bundle/NewMonitor on worker environments
	// (static view: the workers' live wait histories stay in the workers).
	// Built like shard 0, never enacted on, and only if one of those
	// accessors is actually called — the common Submit/Wait path never pays
	// for it. Construction cannot realistically fail (the same configuration
	// already built every worker's stack); if it somehow does, the stack is
	// nil. Unused on local environments, which expose shard 0's real stack.
	mirror func() *backend.Local

	// steal enables cross-shard work stealing (WithWorkStealing on a
	// multi-shard virtual-time environment): Submit keeps at most the
	// admission window's worth of jobs enacted per shard and queues the
	// rest un-enacted, which is what makes them safe to migrate.
	steal bool

	// jobMu serializes shard placement and global job-ID allocation.
	jobMu  sync.Mutex
	jobSeq int

	closed   atomic.Bool
	draining atomic.Bool
}

// NewEnv builds an execution environment from functional options:
//
//	env, err := aimes.NewEnv(aimes.WithSeed(42), aimes.WithSites(sites...))
func NewEnv(opts ...Option) (*Environment, error) {
	var o envOptions
	for _, opt := range opts {
		opt(&o)
	}
	kind := BackendLocal
	if o.pool != nil {
		kind = BackendWorker
	}
	if o.shardsSet {
		if o.shards < 1 {
			return nil, fmt.Errorf("aimes: WithShards(%d): shard count must be at least 1", o.shards)
		}
		if o.realTime && o.shards > 1 {
			return nil, fmt.Errorf("aimes: WithShards(%d) with WithRealTime: a wall-clock environment runs exactly one shard, paced by one clock", o.shards)
		}
	}
	if o.steal && o.realTime {
		return nil, fmt.Errorf("aimes: WithWorkStealing with WithRealTime: work stealing migrates queued jobs between shards their waiters pump; a wall-clock environment runs a single shard, paced by the clock")
	}
	switch o.wireCodec {
	case "", CodecJSON, CodecBinary:
	default:
		return nil, fmt.Errorf("aimes: unknown wire codec %q (want CodecJSON, CodecBinary, or empty for negotiated)", o.wireCodec)
	}
	var pcfg backend.PoolConfig
	if kind == BackendWorker {
		if o.realTime {
			return nil, fmt.Errorf("aimes: WithWorkerPool with WithRealTime: the parent steps each worker's engine over the wire as fast as its waiters pump; pacing on the wall clock requires BackendLocal")
		}
		if os.Getenv(backend.WorkerEnv) != "" {
			return nil, fmt.Errorf("aimes: a worker process may not spawn workers of its own (call aimes.WorkerMain at the top of main so the child serves instead of re-running the program)")
		}
		var err error
		if pcfg, err = buildPoolConfig(&o); err != nil {
			return nil, err
		}
	}
	n := o.shards
	if !o.shardsSet {
		if o.realTime {
			n = 1
		} else {
			n = runtime.GOMAXPROCS(0)
		}
	}
	configs := o.sites
	if configs == nil {
		configs = site.DefaultTestbed()
	}
	names := make([]string, 0, len(configs))
	for _, c := range configs {
		names = append(names, c.Name)
	}
	env := &Environment{
		picker:    shard.NewPicker(n),
		stealer:   shard.NewStealer(n),
		kind:      kind,
		resources: names,
		steal:     o.steal && n > 1, // a single shard has no peers to steal from
	}
	env.model = model.New(model.Config{Shards: n, Backend: string(kind)})
	env.picker.SetModel(&placementModel{env})
	if kind == BackendWorker {
		pool, err := backend.NewPool(pcfg)
		if err != nil {
			return nil, err
		}
		env.fleet = &fleet{env: env, pool: pool}
	}
	for k := 0; k < n; k++ {
		sh, err := env.newShard(k, &o)
		if err != nil {
			env.Close()
			return nil, err
		}
		env.shards = append(env.shards, sh)
	}
	env.mirror = sync.OnceValue(func() *backend.Local {
		// No sink: a stack that never enacts never emits.
		l, _ := backend.NewLocal(backend.Config{
			Shard: 0, Seed: shard.Seed(o.seed, 0), Sites: o.sites, Pilot: o.pilot,
		}, nil)
		return l
	})
	return env, nil
}

// Shards reports the number of parallel simulation shards.
func (e *Environment) Shards() int { return len(e.shards) }

// Backend reports the execution backend the environment's shards run on.
func (e *Environment) Backend() BackendKind { return e.kind }

// Close releases the environment's backends: an orderly shutdown of the
// worker fleet — probers stop, every live session closes — for worker
// shards, the end of the pacer's goroutine for a wall-clock shard, a no-op
// otherwise. Jobs still running on worker shards fail as their workers
// exit; on a wall-clock shard they stop where they are. Close is idempotent;
// virtual-time environments on the local backend need not call it.
func (e *Environment) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	if e.fleet != nil {
		// Worker environments close through the fleet's pool, which owns
		// every live session: a respawn can swap a shard's backend under
		// the shard lock, so the pool — not a racy sh.be walk — is the one
		// place that knows the current worker set.
		return e.fleet.pool.Close()
	}
	var first error
	for _, sh := range e.shards {
		sh.pace.stop()
		if err := sh.be.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Drain gracefully winds the environment down: it stops admission — every
// subsequent Submit fails with a descriptive error — and then waits for all
// live jobs (queued or enacted, on every shard) to reach a final state.
// Drain itself pumps: on virtual-time shards it calls Wait on each live job,
// so jobs finish even with no other waiter attached. It returns nil once no
// shard owns a live job, or ctx's error if the context expires first (the
// environment stays draining either way). Drain then Close is the orderly
// shutdown sequence for a long-lived service.
func (e *Environment) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e.draining.Store(true)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var live []*Job
		for _, sh := range e.shards {
			sh.sync(func() { live = sh.liveJobs(live) })
		}
		if len(live) == 0 {
			return nil
		}
		// A job caught mid-migration can appear twice, which Wait tolerates.
		sortJobs(live)
		for _, j := range live {
			if _, err := j.Wait(ctx); err != nil && ctx.Err() != nil {
				return ctx.Err()
			}
		}
	}
}

// Draining reports whether Drain has been called: admission is stopped and
// the environment is winding down.
func (e *Environment) Draining() bool { return e.draining.Load() }

// ChaosEvent is one scheduled fault injection against a shard's simulation
// stack — see the backend package for the action vocabulary (site outages,
// queue surges, pilot preemption, WAN degradation, kill-worker).
type ChaosEvent = backend.ChaosEvent

// InjectChaos schedules a fault on shard k, ev.After from the shard's
// current virtual time. It works on local and worker shards alike (the
// event crosses the wire for worker shards), except kill-worker, which only
// worker-hosted shards accept. Faults injected before the affected jobs are
// submitted land at deterministic trajectory points.
func (e *Environment) InjectChaos(k int, ev ChaosEvent) error {
	sh, err := e.shardAt(k)
	if err != nil {
		return err
	}
	sh.sync(func() { err = sh.be.Inject(ev) })
	return err
}

// shardAt returns shard k, or the error naming the valid range.
func (e *Environment) shardAt(k int) (*shardEnv, error) {
	if k < 0 || k >= len(e.shards) {
		return nil, fmt.Errorf("aimes: shard %d out of range [0,%d)", k, len(e.shards))
	}
	return e.shards[k], nil
}

// queryStack is the in-process stack behind Bundle and NewMonitor: shard 0's
// on the local backend, the mirror (nil if it could not be built) on the
// worker backend.
func (e *Environment) queryStack() *backend.Local {
	if e.kind == BackendWorker {
		return e.mirror()
	}
	return e.shards[0].local
}

// Bundle exposes the environment's resource bundle for queries, monitoring
// and discovery. On the local backend this is shard 0's live bundle (all
// shards share the same site configurations; their predictive wait
// histories diverge independently as jobs run — use ShardBundle for a
// specific shard's view). On the worker backend it is a local mirror of the
// testbed: correct configurations, but the live wait histories stay in the
// worker processes (Derive crosses the wire and does see them).
func (e *Environment) Bundle() *Bundle {
	if l := e.queryStack(); l != nil {
		return l.Bundle()
	}
	return nil
}

// ShardBundle exposes shard k's live resource bundle, or nil when k is out
// of range or the shard runs out of process (worker backend).
func (e *Environment) ShardBundle(k int) *Bundle {
	if sh, err := e.shardAt(k); err == nil && sh.local != nil {
		return sh.local.Bundle()
	}
	return nil
}

// Resources returns the testbed resource names.
func (e *Environment) Resources() []string {
	cp := make([]string, len(e.resources))
	copy(cp, e.resources)
	return cp
}

// Derive makes the execution-strategy decisions for a workload without
// enacting them, against shard 0's bundle view — on every backend, so a
// worker shard derives against its own live wait history. (Submit derives
// against the bundle of the shard the job lands on.)
func (e *Environment) Derive(w *Workload, cfg StrategyConfig) (s Strategy, err error) {
	sh := e.shards[0]
	sh.sync(func() { s, err = sh.be.Derive(w, cfg) })
	return s, err
}

// NewMonitor starts a bundle monitor on shard 0's engine and bundle (note
// that on a virtual-time shard time only advances while one of its jobs
// runs and a client waits on it). It, Monitor.Subscribe and Monitor.Stop are
// safe to call while jobs run; a subscriber runs under the shard's
// serialization and must not call them. On the worker backend the monitor
// attaches to the environment's static mirror — its engine never advances,
// so threshold subscriptions never fire; monitor inside the worker
// processes is future work.
func (e *Environment) NewMonitor(interval time.Duration) *Monitor {
	l := e.queryStack()
	if l == nil {
		return nil
	}
	return bundle.NewMonitor(l.Engine(), l.Bundle(), interval, e.shards[0].sync)
}

// Validate checks a workload/strategy-config pair against the environment
// before enactment; Submit runs it automatically when it derives a strategy.
// It rejects zero-task workloads, negative pilot counts (zero delegates the
// choice to the manager), unknown binding/scheduler/selection values, and
// fixed resource selections naming resources outside the testbed.
func (e *Environment) Validate(w *Workload, cfg StrategyConfig) error {
	if w == nil || w.TotalTasks() == 0 {
		return fmt.Errorf("aimes: zero-task workload (generate tasks before submitting)")
	}
	if cfg.Pilots < 0 {
		return fmt.Errorf("aimes: pilot count %d is negative (use 0 to let the manager choose)", cfg.Pilots)
	}
	if cfg.Binding != EarlyBinding && cfg.Binding != LateBinding {
		return fmt.Errorf("aimes: unknown binding %d (want EarlyBinding or LateBinding)", cfg.Binding)
	}
	switch cfg.Scheduler {
	case SchedDirect, SchedRoundRobin, SchedBackfill:
	default:
		return fmt.Errorf("aimes: unknown scheduler %d (want SchedDirect, SchedRoundRobin or SchedBackfill)", cfg.Scheduler)
	}
	switch cfg.Selection {
	case SelectRandom, SelectByPredictedWait:
	case SelectFixed:
		if len(cfg.FixedResources) == 0 {
			return fmt.Errorf("aimes: fixed selection without resources")
		}
		for _, name := range cfg.FixedResources {
			if !slices.Contains(e.resources, name) {
				return fmt.Errorf("aimes: unknown resource %q (have %v)", name, e.resources)
			}
		}
	default:
		return fmt.Errorf("aimes: unknown selection %d (want SelectRandom, SelectByPredictedWait or SelectFixed)", cfg.Selection)
	}
	return nil
}
