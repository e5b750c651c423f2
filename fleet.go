package aimes

import (
	"fmt"
	"os"
	"os/exec"
	"sync/atomic"
	"time"

	"aimes/internal/backend"
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

// buildPoolConfig turns WithWorkerPool's configuration into the fleet
// configuration the backend pool dials from.
func buildPoolConfig(o *envOptions) (backend.PoolConfig, error) {
	cfg := backend.PoolConfig{Options: backend.WorkerOptions{Codec: o.wireCodec}}
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
		var err error
		if secret, err = backend.SecretFromEnv(); err != nil {
			return cfg, fmt.Errorf("aimes: %w", err)
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

// fleet owns an environment's worker sessions and everything that happens
// when one dies: the backend pool (placement on endpoints, liveness probes,
// the restart budget, cordons), the death handler that fails what died with
// the worker and respawns it, and the replay of what did not. It is nil on
// the local backend — decided once, in workers; the one question the pump
// and the admission gate ask of it (parked) short-circuits on a backend that
// cannot die.
type fleet struct {
	env  *Environment
	pool *backend.Pool

	// replayed counts queued (never-enacted) descriptors re-admitted onto a
	// respawned worker after its predecessor died.
	replayed atomic.Int64
}

// workers returns the pool an endpoint or kill call acts on, or the error
// those calls return on the local backend.
func (f *fleet) workers(call string) (*backend.Pool, error) {
	if f == nil {
		return nil, fmt.Errorf("aimes: %s needs a worker fleet (WithWorkerPool); this environment runs on the local backend", call)
	}
	return f.pool, nil
}

// deathOf is the callback sh's worker session runs, once, if it dies.
func (f *fleet) deathOf(sh *shardEnv) func(error) {
	return func(cause error) { f.shardDied(sh, cause) }
}

// dial connects sh's worker on its home endpoint; the shard's own
// configuration (sh.cfg) is what a respawn dials the replacement from.
func (f *fleet) dial(sh *shardEnv) error {
	w, err := f.pool.Dial(sh.id, sh.cfg, sh, f.deathOf(sh))
	if err != nil {
		return err
	}
	sh.be = w
	return nil
}

// parked reports whether sh's admission queue is waiting for a respawn: its
// worker is dead with restart budget remaining, so the death handler will
// (or is about to) replace it and replay the queue. Enacting a queued
// descriptor now would charge it to the corpse, and failing one would lose
// a job the replacement can run. With the budget spent nothing is parked:
// enactments fail fast on the dead session and the handler fails the rest.
func (f *fleet) parked(sh *shardEnv) bool {
	return sh.be.Dead() && f.pool.CanRespawn(sh.id)
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
// gate: a replayed descriptor enacts on the fresh stack exactly as a first
// submission on a fresh shard would, preserving the per-shard determinism
// contract. When no respawn is possible — budget spent, every endpoint
// cordoned or unreachable, environment closing — the queued jobs fail too,
// which is the pre-fleet contained-failure behavior. Jobs on other shards
// are untouched either way.
func (f *fleet) shardDied(sh *shardEnv, cause error) {
	sh.sync(func() {
		jobs := sh.liveJobs(nil)
		sortJobs(jobs) // deterministic failure order (map iteration is not)
		fail := func(queued bool) {
			for _, j := range jobs {
				// Mid-handoff jobs belong to their migrator; the two passes
				// split the rest into enacted and descriptor-only.
				if j.sh.Load() != sh || (j.State() == JobQueued) != queued {
					continue
				}
				if queued {
					sh.adm.withdraw(j)
				}
				j.complete(nil, fmt.Errorf("aimes: shard s%d: %v", sh.id, cause))
			}
		}

		// The gate stays shut while the enacted jobs fail: each completion
		// frees a slot, and the queue — the replay candidates — must not be
		// admitted against the dead backend.
		sh.adm.hold()
		fail(false)

		var w *backend.Worker
		err := fmt.Errorf("environment closing")
		if !f.env.closed.Load() {
			w, err = f.pool.Respawn(sh.id, sh.cfg, sh, f.deathOf(sh))
		}
		if err != nil {
			// Terminal: no replacement worker, so the queued jobs fail with
			// the original crash cause — the contained failure MaxRestarts 0
			// always produces.
			fail(true)
		} else {
			// The replacement runs the identical stack from the identical
			// seed: swap it in, and reopening the gate replays the queue
			// FIFO through normal admission.
			sh.be = w
			sh.restarts.Add(1)
			f.replayed.Add(int64(sh.adm.depth()))
		}
		sh.adm.release()
	})
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
	p, err := e.fleet.workers("Fleet")
	if err != nil {
		return FleetStats{}
	}
	ps := p.Stats()
	return FleetStats{Restarts: ps.Restarts, Replayed: e.fleet.replayed.Load(), Endpoints: ps.Endpoints}
}

// CordonEndpoint marks the named fleet endpoint ineligible for new
// placements: shards already running there keep running, but respawns and
// failovers skip it. Errors on the local backend or an unknown name.
func (e *Environment) CordonEndpoint(name string) error {
	p, err := e.fleet.workers("CordonEndpoint")
	if err != nil {
		return err
	}
	return p.Cordon(name)
}

// UncordonEndpoint reverses CordonEndpoint.
func (e *Environment) UncordonEndpoint(name string) error {
	p, err := e.fleet.workers("UncordonEndpoint")
	if err != nil {
		return err
	}
	return p.Uncordon(name)
}

// DrainEndpoint cordons the named endpoint and severs every worker it
// hosts. Each severed shard recovers exactly as from a crash: within the
// restart budget its queued descriptors replay on a respawn placed
// elsewhere in the fleet, while its enacted jobs fail — their engine state
// lived on the drained endpoint and cannot be reconstructed.
func (e *Environment) DrainEndpoint(name string) error {
	p, err := e.fleet.workers("DrainEndpoint")
	if err != nil {
		return err
	}
	return p.Drain(name)
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
	if _, err := e.shardAt(k); err != nil {
		return err
	}
	p, err := e.fleet.workers("KillWorker")
	if err != nil {
		return err
	}
	return p.Kill(k)
}
