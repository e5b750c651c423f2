package aimes

import "aimes/internal/backend"

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

// WithRealTime holds the environment's engine to the wall clock: the same
// events fire in the same order as in virtual time, each when the time since
// NewEnv reaches it (after any emergent-site warm-up, which still runs in
// virtual time), so batch queues, staging links and agents take as long as
// they say, and jobs complete without anyone pumping — Wait only blocks.
// Intended for small, fast testbeds (see examples/realtime). One clock paces
// one shard: mutually exclusive with WithShards(n > 1), WithWorkStealing and
// the worker backend (WithWorkerPool), whose engines advance as fast as
// their waiters step them.
func WithRealTime() Option { return func(o *envOptions) { o.realTime = true } }

// WithShards partitions the environment into n parallel simulation shards.
// Each shard is a complete, independent engine stack (engine, testbed, SAGA
// session, bundle, execution manager), so jobs placed on different shards
// execute truly in parallel: concurrent waiters pump their own shard's
// engine with no shared lock, and multi-tenant throughput scales with the
// shard count up to the hardware's parallelism.
//
// The default is runtime.GOMAXPROCS(0) shards in virtual time and exactly 1
// with WithRealTime (on the wall clock nothing is gained by a second shard:
// events wait for their time, not for a processor). n must be at least 1;
// combining WithRealTime with n > 1 is rejected.
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
// Work stealing moves jobs between shards that waiters pump, so combining it
// with WithRealTime (one shard, paced by the clock) is rejected, and it only
// has effect with at least two shards.
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

// Wire codecs for WithWireCodec.
const (
	// CodecJSON pins the field-named JSON payload encoding — debuggable
	// with a pipe tee.
	CodecJSON = backend.CodecJSON
	// CodecBinary is the compact binary payload encoding, the default.
	CodecBinary = backend.CodecBinary
)

// WithWireCodec selects the worker wire codec. The default (empty string)
// and CodecBinary both mean the binary codec, and NewEnv fails against a
// worker that does not accept it; pass CodecJSON to pin the debuggable
// encoding. No effect on the local backend.
func WithWireCodec(name string) Option {
	return func(o *envOptions) { o.wireCodec = name }
}
