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
// or on a wall-clock engine for local real-time execution.
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
// On the virtual-time engine, time advances while any goroutine blocks in
// Job.Wait (whoever waits, pumps — so N tenants need no dedicated driver);
// on the wall-clock engine (WithRealTime) time advances on its own.
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
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aimes/internal/backend"
	"aimes/internal/bundle"
	"aimes/internal/core"
	"aimes/internal/model"
	"aimes/internal/pilot"
	"aimes/internal/shard"
	"aimes/internal/sim"
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
type Environment struct {
	shards   []*shardEnv
	picker   *shard.Picker
	stealer  *shard.Stealer
	realTime bool
	kind     BackendKind

	// model is the analytical cost-model twin (internal/model): per-shard
	// EWMA fits of drain rate, queue wait and event demand, refitted on
	// every completion and consulted by predictive placement, the migration
	// benefit gate, and admission-window sizing. Always non-nil.
	model *model.CostModel

	// pool is the worker fleet manager (nil on the local backend): it owns
	// every worker session, places shards on endpoints, probes liveness,
	// and respawns dead workers within the restart budget. All sh.be
	// lifecycle transitions on worker environments route through it.
	pool *backend.Pool

	// replayed counts queued (never-enacted) descriptors re-admitted onto
	// a respawned worker after its predecessor died.
	replayed atomic.Int64

	// resources is the testbed site names in registration order — identical
	// on every shard and backend, so validation never crosses the seam.
	resources []string

	// mirror is a lazily built local stack mirroring the workers' site
	// configuration, backing Bundle/NewMonitor on worker environments
	// (static view: the workers' live wait histories stay in the workers).
	// Unused on local environments, which expose shard 0's real stack.
	mirrorCfg  backend.Config
	mirrorOnce sync.Once
	mirror     *backend.Local

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

// shardEnv is the environment's frontend for one simulation shard: the
// backend handle plus everything the orchestration layer keeps on its side
// of the seam — the mutex serializing backend access, the admission queue,
// the live-job registry, load accounting, and the shard trace log. On
// virtual-time backends all engine access (enactment, stepping,
// cancellation) runs under mu; the wall-clock engine serializes through its
// own Sync instead.
type shardEnv struct {
	id int
	be backend.Backend

	local     *backend.Local    // non-nil for the in-process backend
	syncer    sim.Syncer        // wall-clock callback serialization; nil → mu
	quiet     backend.Quiescent // non-nil when the backend answers runnability
	steppable bool

	// wcfg is the backend configuration the shard was built from — kept so
	// a respawn dials the replacement with the identical per-shard seed.
	// restarts counts successful respawns of this shard's worker.
	wcfg     backend.Config
	restarts atomic.Int32

	// log is the shard's trace store — the only copy the environment keeps:
	// the most recent traceRetention raw records of this shard's jobs, each
	// threaded into its job's stream, fed by the backend sink. It has its own
	// lock, so readers stay outside the shard's engine serialization.
	log *trace.Log

	mu sync.Mutex

	// jobs registers every live job currently owned by the shard (queued or
	// enacted), keyed by the environment-global job ID — the routing table
	// for backend events and the roster a worker-death handler fails.
	// Guarded by the shard's engine serialization.
	jobs map[int]*Job

	// Admission state, guarded like jobs: queue holds submitted jobs
	// awaiting enactment behind the admission window — still pure
	// descriptors, which is what makes them migratable — and running counts
	// enacted, unfinished jobs. Without work stealing the window is
	// unbounded and the queue stays empty.
	queue     []*Job
	running   int
	admitting bool // admission-loop reentrancy guard (completions re-enter)

	// batch is the shard's pump granularity: pumpBatch for local shards,
	// workerPumpBatch for worker shards (see newShard). Set once at
	// construction, read without synchronization.
	batch int

	// Adaptive admission window telemetry (see Environment.windowFor).
	lastWindow atomic.Int32
	peakWindow atomic.Int32

	// Load signals read lock-free by placement and stealing decisions.
	// pendingCost is the expected work submitted and not yet finished;
	// doneCost/busyNanos feed the observed-throughput weighting: cost
	// completed versus wall-clock time this shard's engine spent firing
	// events. Costs are in milli-core-seconds (Workload.CoreSeconds × 1000).
	pendingCost atomic.Int64
	doneCost    atomic.Int64
	doneJobs    atomic.Int64
	busyNanos   atomic.Int64
	eventsFired atomic.Int64

	// lastDoneEvents/lastDoneJobs are eventsFired and doneJobs at the last
	// completion that saw the event counter move — the subtrahends for the
	// per-job event-demand observation fed to the cost model (events fire
	// in batches, so one delta can cover several completions). Guarded by
	// the shard's engine serialization (every completion path runs under
	// it), so they need no atomics.
	lastDoneEvents int64
	lastDoneJobs   int64
}

// traceRetention is the number of most recent trace records a shard keeps.
// The largest single-environment trace in the repository (a paper-matrix
// epoch, ~115 k records on one shard) is 9x under it; at the bound a shard's
// log holds about 75 MB.
const traceRetention = 1 << 20

// sync runs fn serialized with the shard backend's callbacks: under the
// engine's Sync on wall-clock backends, under the shard mutex otherwise.
// Every entry point that touches a shard's enactment state goes through it.
func (sh *shardEnv) sync(fn func()) {
	if sh.syncer != nil {
		sh.syncer.Sync(fn)
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fn()
}

// JobTrace implements backend.Sink: it stores one raw trace record of a job
// in the shard log, threaded into the job's stream. Nothing else happens per
// record: every consumer reads the log through a cursor of its own. It runs
// under the shard's engine serialization.
func (sh *shardEnv) JobTrace(key int, ns string, rec trace.Record) {
	if j := sh.jobs[key]; j != nil {
		sh.log.Append(j.stream, ns, rec)
	}
}

// JobDone implements backend.Sink: the backend finished a job (completed,
// canceled, or failed with a report) and the environment-side handle
// completes. It runs under the shard's engine serialization.
func (sh *shardEnv) JobDone(key int, report *core.Report) {
	if j := sh.jobs[key]; j != nil {
		j.complete(report, nil)
	}
}

// Option configures NewEnv.
type Option func(*envOptions)

type envOptions struct {
	seed      int64
	sites     []SiteConfig
	pilot     *PilotConfig
	realTime  bool
	shards    int
	shardsSet bool
	steal     bool
	wireCodec string
	maxFrame  int
	pool      *WorkerPool // non-nil selects the worker backend
}

// WithSeed sets the seed driving all randomness; environments with equal
// seeds and equal submission sequences behave identically on the virtual
// engine.
func WithSeed(seed int64) Option { return func(o *envOptions) { o.seed = seed } }

// WithSites overrides the default five-resource testbed.
func WithSites(sites ...SiteConfig) Option {
	return func(o *envOptions) { o.sites = sites }
}

// WithPilotConfig overrides the default middleware overheads and failure
// injection.
func WithPilotConfig(cfg PilotConfig) Option {
	return func(o *envOptions) { c := cfg; o.pilot = &c }
}

// WithRealTime runs the environment on the wall-clock engine: batch queues,
// staging links and agents fire on real timers, and jobs complete without
// anyone pumping. Intended for small, fast testbeds (see examples/realtime).
// Mutually exclusive with the worker backend (WithWorkerPool), whose
// protocol is virtual-time by construction.
func WithRealTime() Option { return func(o *envOptions) { o.realTime = true } }

// WithShards partitions the environment into n parallel simulation shards.
// Each shard is a complete, independent engine stack (engine, testbed, SAGA
// session, bundle, execution manager), so jobs placed on different shards
// execute truly in parallel: concurrent waiters pump their own shard's
// engine with no shared lock, and multi-tenant throughput scales with the
// shard count up to the hardware's parallelism.
//
// The default is runtime.GOMAXPROCS(0) shards on the virtual-time engine and
// exactly 1 with WithRealTime (wall-clock timers already run concurrently).
// n must be at least 1; combining WithRealTime with n > 1 is rejected.
//
// Determinism is per-shard: the same environment seed and the same per-shard
// submission order reproduce identical reports for the jobs of that shard,
// regardless of traffic on other shards. Tenants that need this across runs
// pin their jobs (JobConfig.Placement = PlacePinned).
func WithShards(n int) Option {
	return func(o *envOptions) { o.shards = n; o.shardsSet = true }
}

// WithWorkStealing enables cross-shard work stealing, so a skewed tenant mix
// still saturates the hardware: Submit keeps a bounded number of jobs
// enacted per shard (the admission window, sized adaptively from the
// shard's observed drain rate and queue depth — see StealStats.Windows) and
// queues the rest un-enacted. A queued job is a pure descriptor — no
// pilots, no events, no randomness drawn — so it can be handed off to a
// less-loaded shard with a migration-safe handoff: the destination assigns
// a fresh namespace and derives the strategy from its own seeded
// randomness, recording an "em" MIGRATED trace event. Waiters of queued
// migratable jobs migrate them, completing waiters rebalance one queued job
// on their way out, and waiters finding their shard's lock contended
// help-pump the most loaded shard in bounded, lock-ordered batches (see
// StealStats).
//
// What migrates and what does not: only queued, never-enacted jobs move —
// an enacted job's pilots and events stay on its shard and are only ever
// pumped there. Jobs placed by round-robin or least-loaded migrate by
// default; pinned jobs never migrate unless JobConfig.Migrate is
// MigrateAllow, and a pinned non-migratable submission permanently seals its
// shard against incoming migrants, preserving the per-shard determinism
// contract for that tenant (see the Migrate policy for the caveats). Sealed
// shards also keep the constant minimum admission window, so the tenant's
// trajectory never depends on wall-clock drain measurements.
//
// Work stealing requires the virtual-time engine (combining it with
// WithRealTime is rejected) and only has effect with at least two shards.
// It composes with the worker backend: the same two-phase descriptor
// handoff routes through the transport, because a queued job is a
// descriptor the backend has never seen.
func WithWorkStealing() Option { return func(o *envOptions) { o.steal = true } }

// BackendKind names a shard execution backend (see Environment.Backend).
type BackendKind string

// Shard execution backends.
const (
	// BackendLocal runs every shard in-process — the default, bit-identical
	// to the environments of releases before the backend seam existed.
	BackendLocal BackendKind = "local"
	// BackendWorker runs every shard out of process — a child OS process or
	// a connection to a TCP worker host — speaking the framed wire protocol
	// (see WithWireCodec). Selected by WithWorkerPool.
	BackendWorker BackendKind = "worker"
)

// WorkerEndpoint is one place a fleet can host worker shards: a TCP worker
// host (`aimes-worker serve`) when Addr is set, or spawned child processes
// when it is not.
type WorkerEndpoint struct {
	// Name identifies the endpoint in FleetStats and the cordon/drain
	// calls; empty defaults to Addr (TCP) or the command's first element.
	Name string
	// Addr is a TCP worker host ("host:port"); empty means process mode.
	Addr string
	// Command overrides the worker command for this endpoint in process
	// mode (default: WorkerPool.Command, then the usual resolution chain).
	Command []string
}

// WorkerPool is the worker-fleet configuration: where shards run (N hosts ×
// M shards, TCP and process endpoints mixed freely in one environment) and
// the fleet lifecycle (liveness probes, live respawn within a restart
// budget, cordon/drain).
//
// Shard k starts on endpoint k mod len(Endpoints); when a worker dies and
// MaxRestarts allows, it is respawned with the same shard seed — on its
// home endpoint when reachable, failing over to the next non-cordoned one
// otherwise — and its queued, never-enacted jobs are replayed there. See
// WithWorkerPool.
type WorkerPool struct {
	// Endpoints lists where shards run. Empty means one process-mode
	// endpoint (spawn children from Command or the resolution chain).
	Endpoints []WorkerEndpoint
	// Secret is the shared TCP handshake secret, required when any
	// endpoint has an Addr (falls back to $AIMES_WORKER_SECRET, then
	// $AIMES_WORKER_SECRET_FILE). The connection authenticates with it but
	// is NOT encrypted — no TLS yet — so keep it on trusted networks.
	Secret string
	// Command is the default worker command for process-mode endpoints
	// (per-endpoint Command wins). It must speak the worker protocol on
	// stdin/stdout: cmd/aimes-worker does, and so does any binary that
	// calls WorkerMain first thing in main. Nil resolves, in order:
	// $AIMES_WORKER, an "aimes-worker" binary on $PATH, and finally the
	// current executable itself when the program called WorkerMain (tests
	// and examples self-host this way).
	Command []string
	// MaxRestarts bounds live respawns per shard. 0 — the default —
	// disables respawn: a dead worker terminally fails its shard's jobs
	// with a descriptive error while other shards keep running.
	MaxRestarts int
	// HealthInterval is the per-worker liveness-probe period (a ping
	// opcode over the session). 0 disables probing; worker death still
	// surfaces out of band for child processes and in-band on the next
	// wire operation for TCP workers.
	HealthInterval time.Duration
}

// WithWorkerPool runs every shard out of process on the given worker fleet —
// endpoints, secret, restart budget, health probing — the one way to ask
// for the worker backend. The zero WorkerPool spawns one child process per
// shard; combine with WithShards to size the environment:
//
//	env, err := aimes.NewEnv(aimes.WithShards(8),
//		aimes.WithWorkerPool(aimes.WorkerPool{
//			Endpoints: []aimes.WorkerEndpoint{
//				{Addr: "fleet-1:9464"},
//				{Addr: "fleet-2:9464"},
//			},
//			Secret:         secret,
//			MaxRestarts:    2,
//			HealthInterval: 5 * time.Second,
//		}))
//
// Worker shards put each simulation on its own heap and GC, and are the
// stepping stone to multi-host execution: everything that crosses the
// process boundary is a serializable descriptor, trace record, or report.
//
// Determinism: the same seeded, pinned workload produces reports identical
// to the local backend's — each worker hosts the identical shard stack with
// the identical derived seed. Two caveats: with WithWorkStealing, admission
// from the queue is batch-granular over the wire (a completion admits the
// next queued job when the step batch returns, not mid-batch), so
// stealing-mode trajectories may differ between backends — pinned,
// non-migratable tenants are unaffected; and Bundle/NewMonitor expose a
// static local mirror of the testbed rather than the workers' live wait
// histories (Derive and staged-execution feedback do cross the wire).
//
// Mutually exclusive with WithRealTime.
func WithWorkerPool(p WorkerPool) Option {
	return func(o *envOptions) { o.pool = &p }
}

// Wire codecs for WithWireCodec.
const (
	// CodecJSON pins the field-named JSON payload encoding — debuggable
	// with a pipe tee, interoperable with every worker ever shipped.
	CodecJSON = backend.CodecJSON
	// CodecBinary demands the compact binary payload encoding; NewEnv fails
	// against a worker that cannot speak it.
	CodecBinary = backend.CodecBinary
)

// WithWireCodec selects the worker wire codec. The default (empty string)
// negotiates: the binary codec when the worker offers it, JSON otherwise —
// so new parents interoperate with old workers. Pass CodecJSON to pin the
// debuggable encoding or CodecBinary to fail fast instead of silently
// falling back. No effect on the local backend.
func WithWireCodec(name string) Option {
	return func(o *envOptions) { o.wireCodec = name }
}

// WithMaxFrame overrides the worker protocol's per-frame size limit in
// bytes (default backend.DefaultMaxFrame, 256 MiB). Both ends of a TCP
// connection must agree: a host started with a different --max-frame will
// reject frames this side considers legal. No effect on the local backend.
func WithMaxFrame(n int) Option {
	return func(o *envOptions) { o.maxFrame = n }
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
			return nil, fmt.Errorf("aimes: WithShards(%d) with WithRealTime: the wall-clock engine advances on its own timers, so a real-time environment runs exactly one shard", o.shards)
		}
	}
	if o.steal && o.realTime {
		return nil, fmt.Errorf("aimes: WithWorkStealing with WithRealTime: work stealing migrates queued jobs between shard engines pumped in virtual time; the wall-clock engine runs a single self-advancing shard")
	}
	switch o.wireCodec {
	case "", CodecJSON, CodecBinary:
	default:
		return nil, fmt.Errorf("aimes: unknown wire codec %q (want CodecJSON, CodecBinary, or empty for negotiated)", o.wireCodec)
	}
	var pcfg backend.PoolConfig
	if kind == BackendWorker {
		if o.realTime {
			return nil, fmt.Errorf("aimes: the worker backend is virtual-time by construction (the parent drives each worker's engine over the wire); WithRealTime requires BackendLocal")
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
		realTime:  o.realTime,
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
		env.pool = pool
	}
	for k := 0; k < n; k++ {
		sh, err := env.newShard(k, &o)
		if err != nil {
			env.Close()
			return nil, err
		}
		env.shards = append(env.shards, sh)
	}
	env.mirrorCfg = backend.Config{
		Shard: 0, Seed: shard.Seed(o.seed, 0), Sites: o.sites, Pilot: o.pilot,
	}
	return env, nil
}

// mirrorLocal lazily builds the worker environment's query mirror: Bundle
// and NewMonitor need an in-process stack even when every live shard is out
// of process. Built like shard 0, never enacted on, and only if one of
// those accessors is actually called — the common Submit/Wait path never
// pays for it. Construction cannot realistically fail here (the same
// configuration already built every worker's stack); if it somehow does,
// the accessors return nil.
func (e *Environment) mirrorLocal() *backend.Local {
	e.mirrorOnce.Do(func() {
		e.mirror, _ = backend.NewLocal(e.mirrorCfg, nopSink{})
	})
	return e.mirror
}

// newShard builds one shard frontend and its backend. Shard 0 keeps the
// base seed, so a single-shard environment reproduces pre-sharding
// trajectories exactly; higher shards run on decorrelated, deterministic
// seeds (shard.Seed).
func (e *Environment) newShard(k int, o *envOptions) (*shardEnv, error) {
	sh := &shardEnv{
		id:   k,
		log:  trace.NewLog(traceRetention),
		jobs: make(map[int]*Job),
	}
	sh.lastWindow.Store(admitWindow)
	sh.peakWindow.Store(admitWindow)
	cfg := backend.Config{
		Shard:    k,
		Seed:     shard.Seed(o.seed, k),
		Sites:    o.sites,
		Pilot:    o.pilot,
		RealTime: o.realTime,
	}
	switch e.kind {
	case BackendWorker:
		w, err := e.pool.Dial(k, cfg, sh, func(cause error) {
			e.shardDied(sh, cause)
		})
		if err != nil {
			return nil, err
		}
		sh.be = w
		sh.wcfg = cfg
		sh.steppable = true
		// A worker shard pumps in much larger batches than a local one:
		// every batch is a wire round trip (encode, two pipe or socket
		// crossings, decode), so the batch size is what amortizes protocol
		// overhead. The cost — coarser-grained admission and waiter
		// interleaving — is already the documented stealing caveat for this
		// backend.
		sh.batch = workerPumpBatch
	default:
		l, err := backend.NewLocal(cfg, sh)
		if err != nil {
			return nil, err
		}
		sh.be = l
		sh.local = l
		sh.syncer = l.EngineSyncer()
		sh.steppable = l.Steppable()
		sh.batch = pumpBatch
	}
	if q, ok := sh.be.(backend.Quiescent); ok && sh.steppable {
		sh.quiet = q
	}
	return sh, nil
}

// buildPoolConfig turns WithWorkerPool's configuration into the fleet
// configuration the backend pool dials from.
func buildPoolConfig(o *envOptions) (backend.PoolConfig, error) {
	cfg := backend.PoolConfig{
		Options: backend.WorkerOptions{Codec: o.wireCodec, MaxFrame: o.maxFrame},
	}
	p := o.pool
	cfg.MaxRestarts, cfg.HealthInterval = p.MaxRestarts, p.HealthInterval
	if cfg.MaxRestarts < 0 {
		return cfg, fmt.Errorf("aimes: WorkerPool.MaxRestarts %d is negative", p.MaxRestarts)
	}

	eps := p.Endpoints
	if len(eps) == 0 {
		eps = []WorkerEndpoint{{Command: p.Command}}
	}
	secret := p.Secret
	needsSecret := false
	for _, ep := range eps {
		if ep.Addr != "" {
			needsSecret = true
		}
	}
	if needsSecret && secret == "" {
		secret = os.Getenv("AIMES_WORKER_SECRET")
		if secret == "" {
			// Same file fallback the worker host honours, so neither side
			// of the handshake needs the secret in its environment listing.
			if path := os.Getenv("AIMES_WORKER_SECRET_FILE"); path != "" {
				b, err := os.ReadFile(path)
				if err != nil {
					return cfg, fmt.Errorf("aimes: reading $AIMES_WORKER_SECRET_FILE: %w", err)
				}
				secret = strings.TrimSpace(string(b))
			}
		}
		if secret == "" {
			return cfg, fmt.Errorf("aimes: a TCP worker endpoint needs a shared secret: set WorkerPool.Secret, set $AIMES_WORKER_SECRET, or point $AIMES_WORKER_SECRET_FILE at a file holding the value the worker host serves with")
		}
	}

	// The default process command resolves once and is shared, so a fleet
	// of process endpoints does not repeat the $PATH walk per endpoint.
	var defaultArgv []string
	for _, ep := range eps {
		be := backend.Endpoint{Name: ep.Name, Addr: ep.Addr, Secret: secret}
		if ep.Addr == "" {
			argv := ep.Command
			if argv == nil {
				argv = p.Command
			}
			if argv == nil {
				if defaultArgv == nil {
					a, err := resolveWorkerCommand()
					if err != nil {
						return cfg, err
					}
					defaultArgv = a
				}
				argv = defaultArgv
			}
			be.Argv = argv
		}
		cfg.Endpoints = append(cfg.Endpoints, be)
	}
	return cfg, nil
}

// resolveWorkerCommand finds the worker executable when the pool names no
// command: $AIMES_WORKER, then aimes-worker on $PATH, then — if this
// program registered itself via WorkerMain — the current executable.
func resolveWorkerCommand() ([]string, error) {
	if cmd := os.Getenv("AIMES_WORKER"); cmd != "" {
		return []string{cmd}, nil
	}
	if path, err := exec.LookPath("aimes-worker"); err == nil {
		return []string{path}, nil
	}
	if workerMainArmed.Load() {
		self, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("aimes: resolving the current executable for self-hosted workers: %w", err)
		}
		return []string{self}, nil
	}
	return nil, fmt.Errorf("aimes: no worker command: set WorkerPool.Command or $AIMES_WORKER, install aimes-worker on $PATH (go build ./cmd/aimes-worker), or call aimes.WorkerMain at the top of main to self-host workers")
}

// nopSink discards backend events; the query mirror never enacts, so it
// never emits any.
type nopSink struct{}

func (nopSink) JobTrace(int, string, trace.Record) {}
func (nopSink) JobDone(int, *core.Report)          {}

// workerMainArmed records that this program routes worker children through
// WorkerMain, making self-exec a safe worker-command fallback.
var workerMainArmed atomic.Bool

// WorkerMain is the self-hosting hook for worker processes: call it first
// thing in main (or TestMain). In a process spawned as a worker shard it
// serves the worker protocol on stdin/stdout and exits; in every other
// process it returns immediately and arms the current executable as the
// worker-command fallback, so
//
//	func main() {
//		aimes.WorkerMain()
//		env, _ := aimes.NewEnv(aimes.WithShards(4), aimes.WithWorkerPool(aimes.WorkerPool{}))
//		...
//	}
//
// needs no separate worker binary.
func WorkerMain() {
	workerMainArmed.Store(true)
	backend.ServeIfWorker()
}

// Shards reports the number of parallel simulation shards.
func (e *Environment) Shards() int { return len(e.shards) }

// Backend reports the execution backend the environment's shards run on.
func (e *Environment) Backend() BackendKind { return e.kind }

// Close releases the environment's backends: a no-op for local shards, an
// orderly shutdown of the worker fleet — probers stop, every live session
// closes — for worker shards. Jobs still running on worker shards fail as
// their workers exit. Close is idempotent; environments on the local
// backend need not call it.
func (e *Environment) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	if e.pool != nil {
		// Worker environments close through the fleet manager, which owns
		// every live session: a respawn can swap a shard's backend under
		// the shard lock, so the pool — not a racy sh.be walk — is the one
		// place that knows the current worker set.
		return e.pool.Close()
	}
	var first error
	for _, sh := range e.shards {
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
			sh.sync(func() {
				for _, j := range sh.jobs {
					live = append(live, j)
				}
			})
		}
		if len(live) == 0 {
			return nil
		}
		// Deterministic wait order (map iteration is not); a job caught
		// mid-migration can appear twice, which Wait tolerates.
		sort.Slice(live, func(i, k int) bool { return live[i].id < live[k].id })
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

// ShardLoad is one shard's point-in-time load snapshot (see Loads).
type ShardLoad struct {
	Shard    int     // shard index
	Running  int     // enacted, unfinished jobs
	Queued   int     // submitted jobs awaiting admission (work stealing only)
	Load     float64 // weighted effective load: estimated seconds to drain
	Window   int     // current admission window (0 without work stealing)
	Restarts int     // worker respawns for this shard (0 on the local backend)

	// TraceDropped counts the shard's trace records evicted to keep its log
	// at the retention (see Recorder); 0 until the shard has recorded more
	// than about a million.
	TraceDropped int64

	// PredictedCost is the cost model's predicted completion (virtual
	// seconds) of placing one more typical job — the shard's fitted mean
	// demand — on this shard right now: fitted queue wait + current backlog
	// drain + service time. The signal predictive placement ranks, made
	// comparable across shards.
	PredictedCost float64
	// ModelError is the shard's EWMA of relative prediction error
	// (|predicted − observed| / observed per completed job); 0 until the
	// shard has scored a prediction.
	ModelError float64
}

// Loads snapshots every shard's queue depth, running-job count, admission
// window and weighted effective load — the same seconds-to-drain signal
// least-loaded placement and work stealing consult. The snapshot is not a
// single atomic cut across shards; it is meant for monitoring and metrics
// exposition, not coordination.
func (e *Environment) Loads() []ShardLoad {
	e.jobMu.Lock()
	load := e.loadFunc()
	out := make([]ShardLoad, len(e.shards))
	for k := range e.shards {
		out[k].Shard = k
		out[k].Load = load(k)
	}
	e.jobMu.Unlock()
	for k, sh := range e.shards {
		if e.steal {
			out[k].Window = int(sh.lastWindow.Load())
		}
		out[k].Restarts = int(sh.restarts.Load())
		out[k].PredictedCost = e.model.Predict(k, e.model.TypicalCost(k),
			float64(sh.pendingCost.Load())/1000).Total
		out[k].ModelError = e.model.RelError(k)
		out[k].TraceDropped = sh.log.Dropped()
		sh.sync(func() {
			out[k].Running = sh.running
			out[k].Queued = len(sh.queue)
		})
	}
	return out
}

// EndpointStatus is one fleet endpoint's externally visible state (see
// Fleet).
type EndpointStatus = backend.EndpointStatus

// FleetStats is a point-in-time snapshot of the worker fleet's lifecycle
// activity (zero values on the local backend).
type FleetStats struct {
	// Restarts counts worker respawns placed across the fleet since the
	// environment was created.
	Restarts int
	// Replayed counts queued (never-enacted) descriptors re-admitted onto
	// respawned workers.
	Replayed int64
	// Endpoints is per-endpoint fleet state: cordons, health, live shards,
	// respawns placed, cumulative probe failures. Nil on the local
	// backend.
	Endpoints []EndpointStatus
}

// Fleet snapshots the worker fleet's lifecycle state — respawns, replayed
// jobs, per-endpoint health and cordons. On the local backend it returns
// the zero FleetStats.
func (e *Environment) Fleet() FleetStats {
	if e.pool == nil {
		return FleetStats{}
	}
	ps := e.pool.Stats()
	return FleetStats{
		Restarts:  ps.Restarts,
		Replayed:  e.replayed.Load(),
		Endpoints: ps.Endpoints,
	}
}

// CordonEndpoint marks the named fleet endpoint ineligible for new
// placements: shards already running there keep running, but respawns and
// failovers skip it. Errors on the local backend or an unknown name.
func (e *Environment) CordonEndpoint(name string) error {
	if e.pool == nil {
		return fmt.Errorf("aimes: no worker fleet to cordon on the local backend")
	}
	return e.pool.Cordon(name)
}

// UncordonEndpoint reverses CordonEndpoint.
func (e *Environment) UncordonEndpoint(name string) error {
	if e.pool == nil {
		return fmt.Errorf("aimes: no worker fleet to uncordon on the local backend")
	}
	return e.pool.Uncordon(name)
}

// DrainEndpoint cordons the named endpoint and severs every worker it
// hosts. Each severed shard recovers exactly as from a crash: within the
// restart budget its queued descriptors replay on a respawn placed
// elsewhere in the fleet, while its enacted jobs fail — their engine state
// lived on the drained endpoint and cannot be reconstructed.
func (e *Environment) DrainEndpoint(name string) error {
	if e.pool == nil {
		return fmt.Errorf("aimes: no worker fleet to drain on the local backend")
	}
	return e.pool.Drain(name)
}

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
	if k < 0 || k >= len(e.shards) {
		return fmt.Errorf("aimes: shard %d out of range [0,%d)", k, len(e.shards))
	}
	sh := e.shards[k]
	var err error
	sh.sync(func() {
		inj, ok := sh.be.(backend.Injector)
		if !ok {
			err = fmt.Errorf("aimes: shard %d backend does not support chaos injection", k)
			return
		}
		err = inj.Inject(ev)
	})
	return err
}

// KillWorker severs shard k's worker connection immediately — the chaos
// hook for exercising the fleet's failure paths. What happens next depends
// on the environment's restart budget (WorkerPool.MaxRestarts):
//
//   - With restarts remaining, the kill triggers a live respawn, not a
//     terminal shard failure: a replacement worker is dialed with the same
//     shard seed, the shard's queued (never-enacted, descriptor-only) jobs
//     are replayed onto it in order, and only the jobs that were already
//     enacted fail — their pilots and events live in the dead worker's
//     engine and cannot be reconstructed. That enacted-jobs-still-fail
//     contract holds on every respawn.
//   - With the budget spent (or MaxRestarts 0, the default), the shard
//     fails terminally: all its jobs — queued and enacted — fail with a
//     descriptive error, and other shards keep running.
//
// A killed child process trips the transport watcher at once; a killed TCP
// connection surfaces on the shard's next wire operation or liveness
// probe. KillWorker errors on local shards and out-of-range indices.
func (e *Environment) KillWorker(k int) error {
	if k < 0 || k >= len(e.shards) {
		return fmt.Errorf("aimes: shard %d out of range [0,%d)", k, len(e.shards))
	}
	if e.pool == nil {
		return fmt.Errorf("aimes: shard %d runs on the local backend; only worker shards can be killed", k)
	}
	return e.pool.Kill(k)
}

// shardDied is the worker death handler, run once per dead session (from
// the transport watcher, a failed call's notification goroutine, or a
// failed liveness probe — the session funnels them into one notification).
//
// Under the shard's serialization it fails every ENACTED job the shard
// still owns — their engine state died with the worker and cannot be
// reconstructed — and then, if the fleet's restart budget allows, respawns
// the worker with the identical per-shard seed and replays the queued
// (never-enacted, descriptor-only) jobs through the ordinary admission
// machinery: a replayed descriptor enacts on the fresh stack exactly as a
// first submission on a fresh shard would, preserving the per-shard
// determinism contract. When no respawn is possible — budget spent, every
// endpoint cordoned or unreachable, environment closing — the queued jobs
// fail too, which is the pre-fleet contained-failure behavior. Jobs on
// other shards are untouched either way.
func (e *Environment) shardDied(sh *shardEnv, cause error) {
	sh.sync(func() {
		jobs := make([]*Job, 0, len(sh.jobs))
		for _, j := range sh.jobs {
			jobs = append(jobs, j)
		}
		// Deterministic failure order (map iteration is not).
		sort.Slice(jobs, func(i, k int) bool { return jobs[i].id < jobs[k].id })

		// Hold admission shut while the enacted jobs fail: each completion
		// re-enters admitNextLocked, which must not enact queued jobs —
		// the replay candidates — against the dead backend.
		sh.admitting = true
		for _, j := range jobs {
			if j.sh.Load() != sh {
				continue // mid-handoff; the migrator owns it now
			}
			if JobState(j.state.Load()) == JobQueued {
				continue // descriptor-only: a respawn can replay it
			}
			j.complete(nil, fmt.Errorf("aimes: shard s%d: %v", sh.id, cause))
		}

		var w *backend.Worker
		err := fmt.Errorf("environment closing")
		if e.pool != nil && !e.closed.Load() {
			w, err = e.pool.Respawn(sh.id, sh.wcfg, sh, func(cause error) {
				e.shardDied(sh, cause)
			})
		}
		if err != nil {
			// Terminal: no replacement worker, so the queued jobs fail with
			// the original crash cause — the contained failure MaxRestarts 0
			// always produces.
			for _, j := range jobs {
				if j.sh.Load() != sh || JobState(j.state.Load()) != JobQueued {
					continue
				}
				if sh.removeQueued(j) && j.migratable {
					e.stealer.NoteQueued(sh.id, -1)
				}
				j.complete(nil, fmt.Errorf("aimes: shard s%d: %v", sh.id, cause))
			}
			sh.admitting = false
			return
		}

		// The replacement runs the identical stack from the identical seed:
		// swap it in and replay the queue FIFO through normal admission.
		sh.be = w
		sh.quiet = w
		sh.restarts.Add(1)
		e.replayed.Add(int64(len(sh.queue)))
		sh.admitting = false
		e.admitNextLocked(sh)
	})
}

// admitWindow is the minimum admission window: how many jobs a shard keeps
// enacted at once when work stealing is on, before the adaptive sizing has
// any history. Everything beyond the window queues un-enacted and stays
// migratable. Small enough that a skewed burst leaves most of its jobs
// stealable, large enough that a shard always has concurrent tenants to
// interleave. Sealed shards pin their window here permanently.
const admitWindow = 4

// maxAdmitWindow caps the adaptive window, bounding how much work admission
// can strand on one shard before stealing sees it.
const maxAdmitWindow = 64

// windowFor returns the shard's current admission window. Without work
// stealing it is unbounded (enact at Submit). With stealing, the window is
// sized by the cost model from the shard's fitted per-job event demand
// (model.CostModel.Window): keep roughly two pump batches' worth of
// drainable jobs enacted. Heavy tenants burn far more than a batch of
// events per job and stay at the minimum; a flood of tiny tenants retires
// several jobs per batch and would trickle through a constant-size window,
// under-filling the shard between admissions, so the window grows — capped
// by the work actually present (running + queued) and by maxAdmitWindow.
// Every model input is a virtual-event quantity (events fired between
// completions), never a wall clock, so the chosen window at any engine
// point is deterministic and the per-shard determinism contract survives
// adaptation; sealed shards (pinned, non-migratable tenants) still pin the
// constant minimum as an extra predictability guarantee — their window
// never consults the model at all. Must run under the shard's
// serialization.
func (e *Environment) windowFor(sh *shardEnv) int {
	if !e.steal {
		return int(math.MaxInt32)
	}
	if e.stealer.Sealed(sh.id) {
		sh.noteWindow(admitWindow)
		return admitWindow
	}
	w := e.model.Window(sh.id, sh.batch, admitWindow, maxAdmitWindow, sh.running+len(sh.queue))
	sh.noteWindow(w)
	return w
}

// noteWindow records the chosen admission window for StealStats.
func (sh *shardEnv) noteWindow(w int) {
	sh.lastWindow.Store(int32(w))
	if int32(w) > sh.peakWindow.Load() {
		sh.peakWindow.Store(int32(w))
	}
}

// StealStats counts cross-shard work-stealing activity since the
// environment was created (zero values without WithWorkStealing).
type StealStats struct {
	// Migrations counts queued jobs handed off to another shard before
	// enactment.
	Migrations int64
	// Vetoed counts migration candidates the cost model's benefit gate
	// refused: a queued job had a willing destination, but the predicted
	// gain did not cover the handoff. Distinct from rounds that found no
	// candidate at all — a climbing Vetoed with flat Migrations means
	// imbalance exists but moving would not pay.
	Vetoed int64
	// ForeignPumps counts bounded event batches waiters fired on a shard
	// other than their own job's, while their own shard's lock was held by
	// another waiter.
	ForeignPumps int64
	// Windows is each shard's most recently chosen admission window — the
	// adaptive bound on enacted-at-once jobs, sized from the shard's
	// observed drain rate and queue depth (admitWindow floor; sealed shards
	// stay at the floor). Nil without WithWorkStealing.
	Windows []int
	// PeakWindows is each shard's largest window chosen so far. Nil without
	// WithWorkStealing.
	PeakWindows []int
}

// StealStats reports the environment's work-stealing activity.
func (e *Environment) StealStats() StealStats {
	s := StealStats{
		Migrations:   e.stealer.Migrations(),
		Vetoed:       e.stealer.Vetoes(),
		ForeignPumps: e.stealer.ForeignPumps(),
	}
	if e.steal {
		for _, sh := range e.shards {
			s.Windows = append(s.Windows, int(sh.lastWindow.Load()))
			s.PeakWindows = append(s.PeakWindows, int(sh.peakWindow.Load()))
		}
	}
	return s
}

// placementModel adapts the environment's cost model to the picker's
// PlacementModel seam: predicted completion of placing a job of the given
// demand (core-seconds) on shard k, given k's live reserved backlog. Reads
// are lock-free (model fits and pendingCost are atomics); Pick calls it
// under the submission lock, where pending reservations are stable.
type placementModel struct {
	env *Environment
}

func (p *placementModel) PredictedCompletion(k int, cost float64) float64 {
	return p.env.model.Predict(k, cost,
		float64(p.env.shards[k].pendingCost.Load())/1000).Total
}

// loadFunc snapshots the weighted-load signal placement and migration run
// on: a shard's pending expected work (milli-core-seconds, reserved at pick
// time under the submission lock) divided by its observed drain rate, i.e.
// an estimate of seconds-to-drain. Shards without enough history borrow the
// mean rate of those with some, so a fresh shard competes fairly. The
// signal is backend-agnostic: every input is frontend accounting (costs
// reserved at submit, wall time spent in Step calls), so local and worker
// shards compare on the same scale — a worker's wire overhead shows up as a
// lower observed drain rate, exactly as it should.
func (e *Environment) loadFunc() func(int) float64 {
	rates := make([]float64, len(e.shards))
	var sum float64
	known := 0
	for k, sh := range e.shards {
		busy, done := sh.busyNanos.Load(), sh.doneCost.Load()
		if busy >= int64(time.Millisecond) && done > 0 {
			rates[k] = float64(done) / (float64(busy) / float64(time.Second))
			sum += rates[k]
			known++
		}
	}
	fallback := 1.0
	if known > 0 {
		fallback = sum / float64(known)
	}
	for k := range rates {
		if rates[k] == 0 {
			rates[k] = fallback
		}
	}
	return func(k int) float64 {
		return float64(e.shards[k].pendingCost.Load()) / rates[k]
	}
}

// leastLoadedShard snapshots the weighted loads under the submission lock
// and returns the least loaded shard index, preferring unsealed shards: a
// sealed shard hosts a pinned tenant whose determinism contract must not
// depend on load-derived placements landing there (and consuming its
// namespace sequence and randomness). Only when every shard is sealed does
// the overall minimum win.
func (e *Environment) leastLoadedShard() int {
	e.jobMu.Lock()
	defer e.jobMu.Unlock()
	load := e.loadFunc()
	best, bestLoad := -1, 0.0
	anyBest, anyLoad := 0, load(0)
	for k := 0; k < len(e.shards); k++ {
		l := load(k)
		if l < anyLoad {
			anyBest, anyLoad = k, l
		}
		if e.stealer.Sealed(k) {
			continue
		}
		if best < 0 || l < bestLoad {
			best, bestLoad = k, l
		}
	}
	if best < 0 {
		return anyBest
	}
	return best
}

// Bundle exposes the environment's resource bundle for queries, monitoring
// and discovery. On the local backend this is shard 0's live bundle (all
// shards share the same site configurations; their predictive wait
// histories diverge independently as jobs run — use ShardBundle for a
// specific shard's view). On the worker backend it is a local mirror of the
// testbed: correct configurations, but the live wait histories stay in the
// worker processes (Derive crosses the wire and does see them).
func (e *Environment) Bundle() *Bundle {
	if e.kind == BackendWorker {
		if m := e.mirrorLocal(); m != nil {
			return m.Bundle()
		}
		return nil
	}
	return e.shards[0].local.Bundle()
}

// ShardBundle exposes shard k's live resource bundle, or nil when k is out
// of range or the shard runs out of process (worker backend).
func (e *Environment) ShardBundle(k int) *Bundle {
	if k < 0 || k >= len(e.shards) || e.shards[k].local == nil {
		return nil
	}
	return e.shards[k].local.Bundle()
}

// Recorder returns the aggregate execution trace: every job's pilot, unit
// and strategy transitions on every shard, entity-qualified by job
// namespace. It is a read-time view: each call snapshots the shard logs and
// merges them by virtual time into a fresh Recorder — always fully
// time-sorted, with equal timestamps resolving to the lowest shard index and
// then to the shard's engine order (shards keep independent virtual clocks,
// so the merge reads as one coherent timeline). A snapshot is safe to take
// while jobs run and does not change afterwards. Each shard retains its most
// recent records (about a million; ShardLoad.TraceDropped counts the ones
// evicted), so on a long-lived environment the view is the recent past, not
// all of history. Live consumers should Subscribe or range over Job.Events.
func (e *Environment) Recorder() *Recorder { return traceView(e.shards) }

// ShardRecorder returns shard k's trace (that shard's jobs only), or nil
// when k is out of range: the same time-sorted snapshot of the most recent
// records as Recorder, over one shard. It works on every backend: the shard
// log is kept on the environment side of the seam, fed by the backend's
// event stream.
func (e *Environment) ShardRecorder(k int) *Recorder {
	if k < 0 || k >= len(e.shards) {
		return nil
	}
	return traceView(e.shards[k : k+1])
}

// traceView snapshots the shards' logs, qualifying entities as it reads, and
// merges them by record time. Concatenated in shard order, one stable sort
// interleaves the shards' timelines and preserves each shard's internal order
// on equal timestamps — which also absorbs the one worker-backend edge where
// a completion dispatched mid-response admits a job whose later-stamped
// records land before the response's remaining earlier ones.
func traceView(shards []*shardEnv) *Recorder {
	var recs []trace.Record
	for _, sh := range shards {
		recs = sh.log.Snapshot(recs)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	return trace.RecorderOf(recs)
}

// TraceSub is a cursor over the stored trace (Subscribe, Job.Subscribe): a
// position in the shard logs, not a buffer. Read copies the next batch out
// without blocking, Ready receives when there is more, C ranges over the
// records, Dropped counts exactly the records the logs' retention evicted
// before the cursor reached them, Close detaches it.
type TraceSub = trace.Cursor

// Subscribe opens a live stream of the aggregate trace: every
// entity-qualified record of every shard's jobs from now on (nothing recorded
// before is replayed), as a cursor over the shard logs, the one place records
// are stored. Recording a transition never waits for or copies to a
// subscriber; a subscriber loses records only by falling a whole retention
// window (2^20 records per shard) behind. Records from different shards
// interleave in arrival order (shards keep independent virtual clocks); they
// are the records a later Recorder snapshot holds, field for field, whether
// shards run in process or in workers. Close ends a range over C once it has
// caught up.
func (e *Environment) Subscribe() *TraceSub {
	logs := make([]*trace.Log, len(e.shards))
	for k, sh := range e.shards {
		logs[k] = sh.log
	}
	return trace.Tail(logs...)
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
func (e *Environment) Derive(w *Workload, cfg StrategyConfig) (Strategy, error) {
	sh := e.shards[0]
	var (
		s   Strategy
		err error
	)
	sh.sync(func() { s, err = sh.be.Derive(w, cfg) })
	return s, err
}

// RunStaged executes a multistage workload one stage at a time, re-deriving
// the strategy before each stage and feeding observed queue waits back into
// the enacting shard's bundle (paper §V, workflow decomposition). Each
// stage runs as one job, so staged executions coexist with other tenants on
// the shared testbed.
//
// Stage placement follows the execution: each stage after the first is
// pinned to its predecessor's shard, so the wait-feedback loop sees the
// history it produced and per-shard determinism covers the staged
// execution. On a work-stealing environment, a stage that migrated proves
// its pinning no longer reflects the load — the next stage is then placed
// on the least-loaded shard instead, and all earlier stage reports are
// replayed into that shard's bundle first, keeping the feedback loop
// coherent across the hop. It returns the aggregate report and the
// per-stage reports.
func (e *Environment) RunStaged(w *Workload, cfg StrategyConfig) (*Report, []*Report, error) {
	if len(w.Stages) == 0 {
		return nil, nil, fmt.Errorf("aimes: workload has no stages")
	}
	jcfg := JobConfig{StrategyConfig: cfg}
	var stageReports []*Report
	// fed[k] counts the stage reports already replayed into shard k's wait
	// history, so a stage landing on a fresh shard catches that shard up
	// before deriving.
	fed := make([]int, len(e.shards))
	for _, sub := range core.StageWorkloads(w) {
		j, err := e.Submit(context.Background(), sub, jcfg)
		if err != nil {
			return nil, stageReports, fmt.Errorf("aimes: stage %q: %w", sub.Stages[0], err)
		}
		report, err := j.Wait(context.Background())
		if err != nil {
			return nil, stageReports, fmt.Errorf("aimes: stage %q: %w", sub.Stages[0], err)
		}
		stageReports = append(stageReports, report)
		e.feedStaged(j.Shard(), stageReports, fed)
		if e.steal && j.Migrated() {
			// The pinning (or initial placement) was stale enough that the
			// stage moved: derive the next stage's placement from live load
			// instead of following a proven-bad pin. MigrateAllow keeps the
			// pin advisory — and keeps the chosen shard unsealed. The
			// earlier reports are replayed before submission; in the rare
			// case the re-placed stage still migrates off a window that
			// filled in the interim, its landing shard is caught up on
			// landing (the feedStaged above the branch), so later stages —
			// not the hopped stage's own derivation — see the full history.
			k := e.leastLoadedShard()
			e.feedStaged(k, stageReports, fed)
			jcfg.Placement, jcfg.Shard, jcfg.Migrate = PlacePinned, k, MigrateAllow
		} else {
			// Back on the follow-the-predecessor path, restore the default
			// migrate policy: a pinned later stage seals its shard exactly
			// as a directly pinned tenant would, instead of inheriting a
			// sticky MigrateAllow from an earlier hop.
			jcfg.Placement, jcfg.Shard, jcfg.Migrate = PlacePinned, j.Shard(), MigrateAuto
		}
	}
	return core.MergeStaged(stageReports), stageReports, nil
}

// feedStaged replays the stage reports shard k has not yet absorbed into
// its bundle's predictive wait history.
func (e *Environment) feedStaged(k int, reports []*Report, fed []int) {
	sh := e.shards[k]
	for _, r := range reports[fed[k]:] {
		report := r
		sh.sync(func() { _ = sh.be.Feedback(report) })
	}
	fed[k] = len(reports)
}

// NewMonitor starts a bundle monitor on shard 0's engine and bundle (note
// that on a virtual-time shard time only advances while one of its jobs
// runs and a client waits on it). On the worker backend the monitor
// attaches to the environment's static mirror — its engine never advances,
// so threshold subscriptions never fire; monitor inside the worker
// processes is future work.
func (e *Environment) NewMonitor(interval time.Duration) *Monitor {
	l := e.shards[0].local
	if e.kind == BackendWorker {
		if l = e.mirrorLocal(); l == nil {
			return nil
		}
	}
	return bundle.NewMonitor(l.Engine(), l.Bundle(), interval)
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
