package scenario

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"aimes"
	"aimes/internal/shard"
	"aimes/internal/sim"
)

// EnvOptions configures Run.
type EnvOptions struct {
	// Backend selects the shard backend: "local" (in-process) or "worker"
	// (child worker processes). Empty defaults to "worker" for fleet
	// scenarios — the only backend that can host one — and "local"
	// otherwise.
	Backend string
}

// waitTimeout bounds the wall-clock wait for the run's jobs. The engine runs
// in virtual time, so it only trips on a wedged run.
const waitTimeout = 2 * time.Minute

func (o EnvOptions) backend(s *Scenario) string {
	if o.Backend != "" {
		return o.Backend
	}
	if s.Fleet != nil {
		return "worker"
	}
	return "local"
}

// Run executes the scenario through a full execution Environment — the job
// API, shard placement, and (on the worker backend) real worker processes
// and the fleet lifecycle. The jobs are pinned to the scenario's shard, so
// the run adopts that shard's derived seed and namespace. Fleet events reach
// the real control plane: kill-worker severs the target worker's transport
// at the event's virtual time, so the respawn and replay machinery is
// exercised at a deterministic trajectory point, and endpoint events
// (cordon/uncordon/drain) reach the pool.
//
// Testbed chaos and kill-worker events are injected before submission.
// Endpoint events are applied after every submission and before any
// waiting; since virtual time only advances while a waiter pumps, they too
// land deterministically — always before any job has made progress.
//
// A job that cannot complete (say, an outage that never recovers wedging an
// early-binding workload) is not a runner error: its JobOutcome is "failed"
// with the backend's pilot/unit state summary in Err.
func Run(s *Scenario, opts EnvOptions) (*Outcome, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	kind := opts.backend(s)
	if kind != "local" && kind != "worker" {
		return nil, fmt.Errorf("scenario: unknown backend %q (want local or worker)", kind)
	}
	if s.Fleet != nil && kind != "worker" {
		return nil, fmt.Errorf("scenario %s: fleet scenarios require the worker backend", s.Name)
	}
	configs, err := s.siteConfigs()
	if err != nil {
		return nil, err
	}

	envOpts := []aimes.Option{aimes.WithSeed(s.seed()), aimes.WithSites(configs...)}
	if f := s.Fleet; f != nil {
		eps := make([]aimes.WorkerEndpoint, f.endpoints())
		for i := range eps {
			eps[i] = aimes.WorkerEndpoint{Name: EndpointName(i)}
		}
		envOpts = append(envOpts,
			aimes.WithShards(f.workers()), aimes.WithWorkStealing(),
			aimes.WithWorkerPool(aimes.WorkerPool{Endpoints: eps, MaxRestarts: f.MaxRestarts}))
	} else {
		envOpts = append(envOpts, aimes.WithShards(s.Shard+1))
		if kind == "worker" {
			envOpts = append(envOpts, aimes.WithWorkerPool(aimes.WorkerPool{}))
		}
	}
	env, err := aimes.NewEnv(envOpts...)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	defer env.Close()

	// Chaos first, submissions second: the injections are scheduled in each
	// shard's virtual future, so they hit the jobs at fixed trajectory
	// points no matter how wall-clock interleaves.
	for _, e := range s.testbedEvents() {
		if err := env.InjectChaos(s.Shard, e.chaos()); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	for _, e := range s.Events {
		if e.Action != ActionKillWorker {
			continue
		}
		k := s.Shard
		if e.Target != "" {
			k, _ = strconv.Atoi(e.Target)
		}
		if err := env.InjectChaos(k, e.chaos()); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}

	jobs := 1
	if s.Fleet != nil {
		jobs = s.Fleet.jobs()
	}
	jcfg := aimes.JobConfig{
		StrategyConfig: s.strategyConfig(),
		Placement:      aimes.PlacePinned, Shard: s.Shard, Migrate: aimes.MigrateNever,
	}
	if a := s.Strategy.Adaptive; a != nil {
		ac := a.config()
		jcfg.Adaptive = &ac
	}
	// Job 0's workload is seeded like its shard; fan-out jobs draw distinct
	// mixes.
	wseed := shard.Seed(s.seed(), s.Shard)
	handles := make([]*aimes.Job, 0, jobs)
	for i := 0; i < jobs; i++ {
		w, err := s.workload(wseed + int64(i))
		if err != nil {
			return nil, err
		}
		j, err := env.Submit(context.Background(), w, jcfg)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: job %d: %w", s.Name, i, err)
		}
		handles = append(handles, j)
	}

	var applied []AppliedEvent
	endpointEvents := make([]Event, 0)
	for _, e := range s.Events {
		switch e.Action {
		case ActionCordon, ActionUncordon, ActionDrain:
			endpointEvents = append(endpointEvents, e)
		}
	}
	sort.SliceStable(endpointEvents, func(i, j int) bool {
		return endpointEvents[i].At < endpointEvents[j].At
	})
	for _, e := range endpointEvents {
		var aerr error
		switch e.Action {
		case ActionCordon:
			aerr = env.CordonEndpoint(e.Target)
		case ActionUncordon:
			aerr = env.UncordonEndpoint(e.Target)
		case ActionDrain:
			aerr = env.DrainEndpoint(e.Target)
		}
		if aerr != nil {
			return nil, fmt.Errorf("scenario %s: %s %s: %w", s.Name, e.Action, e.Target, aerr)
		}
		applied = append(applied, AppliedEvent{
			At: sim.Time(e.At), Action: e.Action, Target: e.Target,
			Detail: "applied before any job progressed",
		})
	}

	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	outcome := &Outcome{Scenario: s}
	for i, j := range handles {
		r, werr := j.Wait(ctx)
		if ctx.Err() != nil {
			return nil, fmt.Errorf("scenario %s: job %d: %w", s.Name, i, ctx.Err())
		}
		jo := JobOutcome{
			State: j.State().String(), Report: r,
			Predicted: j.PredictedTTC().Seconds(),
		}
		if werr != nil {
			jo.Err = werr.Error()
			if r == nil {
				jo.Report = j.Report()
			}
		}
		outcome.Jobs = append(outcome.Jobs, jo)
	}

	rec := env.Recorder()
	outcome.Recorder = rec
	outcome.Applied = append(appliedFrom(rec), applied...)
	outcome.PilotsLost, outcome.Rescheduled = dynamicsFrom(rec)
	fleet := env.Fleet()
	outcome.Fleet = FleetOutcome{Restarts: fleet.Restarts, Replayed: fleet.Replayed}
	for _, ep := range fleet.Endpoints {
		if ep.Cordoned {
			outcome.Fleet.EndpointsCordoned++
		}
		if ep.Unhealthy {
			outcome.Fleet.EndpointsUnhealthy++
		}
	}
	return outcome, nil
}
