// Package backend defines the execution-backend seam of the sharded
// environment: the narrow, serialization-friendly contract between the
// environment's orchestration layer (placement, admission, work stealing,
// waiting) and one shard's execution substrate (engine, testbed, bundle,
// SAGA session, execution manager).
//
// Everything that crosses the seam is plain data — job descriptors
// (core.Descriptor), trace records, reports — or one of a small set of
// synchronous calls, so a shard can live in the same process (Local, the
// default, bit-identical to the pre-seam engine stack) or out of process
// (Worker): a child OS process on stdio or a TCP worker host, speaking a
// length-framed protocol whose compact binary layout is agreed at connect
// (see wire.go for the layers).
// The environment keeps all cross-shard state — queues, windows, migration,
// load accounting — on its side of the seam, which is why the two-phase
// descriptor handoff of cross-shard work stealing routes through any
// backend unchanged: a queued job is a descriptor the backend has never
// seen.
package backend

import (
	"aimes/internal/core"
	"aimes/internal/pilot"
	"aimes/internal/site"
	"aimes/internal/skeleton"
)

// Descriptor is one job crossing the seam: the core descriptor plus the
// environment-side identity the backend echoes on every event, and the
// origin shard when the job arrived through a work-stealing handoff.
type Descriptor struct {
	// Key is the environment-global job ID; every trace and completion
	// event the backend emits for this job carries it.
	Key int `json:"key"`
	// MigratedFrom is the origin shard of a two-phase handoff, -1 when the
	// job never migrated. The backend records the "em" MIGRATED trace event
	// before enacting.
	MigratedFrom int `json:"migrated_from"`

	core.Descriptor
}

// Enacted is the result of a successful Enact: the shard-local namespace
// the backend assigned ("s<shard>-j<seq>") and the strategy it resolved.
type Enacted struct {
	Namespace string        `json:"namespace"`
	Strategy  core.Strategy `json:"strategy"`
}

// Sink receives a backend's asynchronous outputs. Implementations are
// provided by the environment; backends invoke them synchronously under the
// caller's serialization — for Local during the engine callback that
// produced the event, for Worker while dispatching a response, before the
// originating call returns. Either way the events of one shard arrive in
// order, on the goroutine driving that shard.
//
// JobTrace delivers one raw (unqualified) trace record of job key. ns is the
// job's namespace, so the receiver can entity-qualify records for aggregate
// traces without waiting for Enact to return — records flow during Enact
// itself. JobDone delivers job key's final report. Failure to make progress
// is not reported there: the environment observes a drained engine through
// Step, asks Incomplete for the diagnostic and cancels the job: the cancel's
// records reach the job's trace, and the JobDone it sends fails the job with
// that diagnostic. A Sink that is a core.LogSink gets no JobTrace: both
// backends look a job's stream up through it and append the job's records
// there.
type Sink = core.Sink

// Backend is one shard's execution substrate. All methods except Dead and
// Close must be called under the shard's serialization (the environment's
// per-shard lock); they are not individually thread-safe. Close is an
// exception because the environment tears backends down without taking
// shard locks, so it must tolerate racing in-flight calls (Worker
// self-serializes its wire; Local's Close is a no-op). Every method can
// report a transport error — Local never does, Worker does when the child
// process died, and the environment treats such an error as the death of
// the shard.
type Backend interface {
	// Enact resolves and enacts a job descriptor: derives the strategy
	// (unless pre-derived), assigns the shard-local namespace, submits
	// pilots and schedules units. Trace records (ENACTING, MIGRATED, pilot
	// submissions) flow to the sink before Enact returns.
	Enact(d *Descriptor) (Enacted, error)
	// Step fires up to max engine events, reporting how many fired and
	// whether the event queue drained. Completions and trace records flow
	// to the sink before Step returns.
	Step(max int) (fired int, drained bool, err error)
	// Cancel aborts job key: non-final units are canceled, pilots torn
	// down, and the completion (with a canceled-units report) flows to the
	// sink before Cancel returns. Unknown or finished keys are no-ops.
	Cancel(key int, reason string) error
	// Incomplete returns the diagnostic for job key after the engine
	// drained with the job unfinished (which pilot and unit states it
	// wedged in). The environment cancels the job right after it asks, so
	// the backend releases the execution and its pilots.
	Incomplete(key int) error
	// Derive makes the strategy decisions for a workload against the
	// backend's bundle without enacting anything. It consumes backend
	// randomness exactly as an enacting derivation would.
	Derive(w *skeleton.Workload, cfg core.StrategyConfig) (core.Strategy, error)
	// Runnable reports, without firing anything, whether a Step would fire
	// an event — the non-blocking query half of the pump seam. It may err
	// toward true (Worker answers from cached drain state: false only right
	// after a Step that drained the engine), never toward false.
	Runnable() bool
	// Inject validates a chaos event against this shard and schedules its
	// application ev.After from now in the shard's virtual time.
	Inject(ev ChaosEvent) error
	// Dead reports whether the backend has failed for good: true once a
	// Worker's session broke (the fleet replaces the whole Worker), never
	// for Local. Unlike the rest it is safe to call from any goroutine.
	Dead() bool
	// Close releases the backend: a no-op for Local, an orderly shutdown
	// (then kill) of the child process for Worker.
	Close() error
}

// Config assembles one shard's stack, locally or in a worker process. It is
// plain data all the way down and is itself the init frame's payload (see
// initRequest.Init): what NewLocal is given here, a worker's NewLocal is
// given there (TestInitFrameCarriesEveryConfigField).
type Config struct {
	// Shard is the shard index; it names the namespace ("s<shard>-j<seq>").
	Shard int `json:"shard"`
	// Seed is the shard-derived base seed (shard.Seed already applied).
	Seed int64 `json:"seed"`
	// Sites describes the testbed; nil means site.DefaultTestbed, which an
	// explicit empty list does not (JSON null and [] on the wire).
	Sites []site.Config `json:"sites"`
	// Pilot overrides the default middleware configuration when non-nil.
	Pilot *pilot.Config `json:"pilot,omitempty"`
	// JobSeq is how many jobs the shard enacted before this stack was
	// built: its first job is "s<shard>-j<JobSeq+1>". A respawned worker
	// is dialed with its predecessors' count, so it continues their
	// numbering instead of reusing their namespaces.
	JobSeq int `json:"job_seq,omitempty"`
}
