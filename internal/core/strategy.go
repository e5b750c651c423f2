// Package core implements the paper's primary contribution: the Execution
// Strategy abstraction and the Execution Manager that derives and enacts
// strategies. A strategy makes explicit the decisions that usually stay
// implicit when coupling an application to resources: early or late binding
// of tasks to pilots, the unit scheduler, the number of pilots, their size,
// and their walltime (Table I), plus the resource-selection policy.
//
// An execution's report — TTC and its overlapping components Tw, Tx, Ts — is
// assembled from what its pilot and unit managers accumulated while it ran
// (buildReport): pilot activation times, unit end states, and the unit
// manager's execution and staging covers. The trace an execution writes
// (ExecOptions.Recorder, a trace.Sink) is for whoever reads it afterwards;
// an execution enacted by a backend writes it straight to the shard's log
// and holds no recorder of its own.
package core

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"aimes/internal/bundle"
	"aimes/internal/pilot"
	"aimes/internal/skeleton"
)

// Binding selects when tasks are bound to pilots.
type Binding int

// Binding choices.
const (
	// EarlyBinding assigns tasks to pilots at submission time, before pilots
	// become active (experiments 1 and 2).
	EarlyBinding Binding = iota
	// LateBinding assigns tasks to pilots as they become active and have
	// capacity (experiments 3 and 4).
	LateBinding
)

func (b Binding) String() string {
	if b == LateBinding {
		return "late"
	}
	return "early"
}

// SchedulerKind selects the unit scheduler.
type SchedulerKind int

// Unit scheduler choices.
const (
	// SchedDirect sends every unit to the first pilot (early binding,
	// single pilot).
	SchedDirect SchedulerKind = iota
	// SchedRoundRobin distributes units evenly at submission time (early
	// binding, multiple pilots; kept for ablations).
	SchedRoundRobin
	// SchedBackfill assigns units to active pilots with free capacity (late
	// binding).
	SchedBackfill
)

func (s SchedulerKind) String() string {
	switch s {
	case SchedRoundRobin:
		return "round-robin"
	case SchedBackfill:
		return "backfill"
	}
	return "direct"
}

// build returns the pilot-layer scheduler.
func (s SchedulerKind) build() pilot.Scheduler {
	switch s {
	case SchedRoundRobin:
		return pilot.RoundRobin{}
	case SchedBackfill:
		return pilot.Backfill{}
	}
	return pilot.Direct{}
}

// Selection chooses how resources are picked from the bundle.
type Selection int

// Resource-selection policies.
const (
	// SelectRandom draws resources uniformly from the bundle (the paper's
	// experiments draw from the available pool).
	SelectRandom Selection = iota
	// SelectByPredictedWait prefers resources with the lowest predicted
	// median queue wait (requires primed bundle history; ablation A3).
	SelectByPredictedWait
	// SelectFixed uses the listed resources verbatim.
	SelectFixed
)

func (s Selection) String() string {
	switch s {
	case SelectByPredictedWait:
		return "predicted-wait"
	case SelectFixed:
		return "fixed"
	}
	return "random"
}

// StrategyConfig is the input to strategy derivation: the decision knobs the
// user (or experiment) fixes, with everything else derived from application
// and resource information.
type StrategyConfig struct {
	// Binding selects early or late binding.
	Binding Binding
	// Scheduler overrides the default unit scheduler for the binding
	// (Direct for early, Backfill for late). Leave as SchedDirect with
	// early binding and SchedBackfill with late binding to follow Table I.
	Scheduler SchedulerKind
	// Pilots is the number of pilots (1 for the paper's early binding, 3
	// for late binding). Zero with AutoPilots set lets the manager choose.
	Pilots int
	// AutoPilots lets the Execution Manager pick the pilot count by its
	// semi-empirical TTC heuristic over bundle wait history (see
	// ChoosePilotCount). Requires primed predictive history.
	AutoPilots bool
	// MaxPilots bounds AutoPilots (default: bundle size).
	MaxPilots int
	// Selection picks the resource-selection policy.
	Selection Selection
	// FixedResources lists resources for SelectFixed.
	FixedResources []string
	// WalltimeSlack inflates the derived walltime as a safety margin
	// (default 1.15).
	WalltimeSlack float64
	// DispatchOverhead is the per-unit middleware overhead used in the Trp
	// estimate; it should match the pilot system's configuration.
	DispatchOverhead time.Duration
}

// Strategy is a fully derived execution strategy: the concrete realization
// of every decision, ready for enactment.
type Strategy struct {
	Binding       Binding
	Scheduler     SchedulerKind
	Pilots        int
	Resources     []string // len == Pilots
	PilotCores    int
	PilotWalltime time.Duration

	// Estimates recorded for introspection (Tx, Ts, Trp of Table I).
	EstTx  time.Duration
	EstTs  time.Duration
	EstTrp time.Duration
}

func (s Strategy) String() string {
	return fmt.Sprintf("%s binding, %s scheduler, %d pilot(s) × %d cores, walltime %s, on %v",
		s.Binding, s.Scheduler, s.Pilots, s.PilotCores, s.PilotWalltime, s.Resources)
}

// Validate reports a descriptive error for malformed strategies.
func (s Strategy) Validate() error {
	if s.Pilots <= 0 {
		return fmt.Errorf("core: strategy with %d pilots", s.Pilots)
	}
	if len(s.Resources) != s.Pilots {
		return fmt.Errorf("core: strategy names %d resources for %d pilots", len(s.Resources), s.Pilots)
	}
	if s.PilotCores <= 0 {
		return fmt.Errorf("core: strategy with %d cores per pilot", s.PilotCores)
	}
	if s.PilotWalltime <= 0 {
		return fmt.Errorf("core: strategy with walltime %v", s.PilotWalltime)
	}
	return nil
}

// Derive makes the paper's five strategy decisions for a workload against a
// bundle: (1) binding, (2) unit scheduler, (3) pilot count, (4) pilot size,
// (5) pilot walltime — plus the resource choice. It implements steps 1–4 of
// the Execution Manager's derivation (§III-D); enactment is Manager.Execute.
//
// Pilot size follows Table I: the workload's peak core demand divided evenly
// across pilots. Walltime follows Table I with Tx estimated as the longest
// task duration (full-concurrency estimate), Ts from bundle network
// queries, Trp from the per-unit dispatch overhead; late binding multiplies
// by the pilot count because in the worst case one pilot executes the whole
// workload in waves.
func Derive(w *skeleton.Workload, b *bundle.Bundle, cfg StrategyConfig, rng *rand.Rand) (Strategy, error) {
	if w.TotalTasks() == 0 {
		return Strategy{}, fmt.Errorf("core: empty workload")
	}
	if cfg.Pilots <= 0 {
		if cfg.AutoPilots {
			cfg.Pilots = ChoosePilotCount(w, b, cfg.MaxPilots)
		} else {
			cfg.Pilots = 1
		}
	}
	if cfg.WalltimeSlack <= 0 {
		cfg.WalltimeSlack = 1.15
	}
	if cfg.DispatchOverhead <= 0 {
		cfg.DispatchOverhead = pilot.DefaultConfig().AgentDispatchOverhead
	}

	// Decision 4: pilot size = peak demand / pilots, rounded up.
	totalCores := w.TotalCores()
	pilotCores := (totalCores + cfg.Pilots - 1) / cfg.Pilots

	// Resource choice: capacity-feasible resources only.
	resources, err := selectResources(b, cfg, pilotCores, rng)
	if err != nil {
		return Strategy{}, err
	}

	// Decision 5: walltime from the Tx/Ts/Trp estimates (Table I). The
	// full-concurrency Tx estimate is the critical path across stages: the
	// sum over stages of the longest task, since stages with data
	// dependencies serialize. For single-stage bags of tasks this reduces to
	// the longest task duration, matching Table I.
	estTx := estimateTx(w)
	estTs := estimateStaging(w, b, resources)
	estTrp := time.Duration(w.TotalTasks()) * cfg.DispatchOverhead
	per := estTx + estTs + estTrp
	if cfg.Binding == LateBinding {
		per *= time.Duration(cfg.Pilots)
	}
	walltime := time.Duration(float64(per)*cfg.WalltimeSlack) + 5*time.Minute

	s := Strategy{
		Binding:       cfg.Binding,
		Scheduler:     cfg.Scheduler,
		Pilots:        cfg.Pilots,
		Resources:     resources,
		PilotCores:    pilotCores,
		PilotWalltime: walltime,
		EstTx:         estTx,
		EstTs:         estTs,
		EstTrp:        estTrp,
	}
	if err := s.Validate(); err != nil {
		return Strategy{}, err
	}
	return s, nil
}

// selectResources picks cfg.Pilots distinct resources with enough capacity.
func selectResources(b *bundle.Bundle, cfg StrategyConfig, pilotCores int, rng *rand.Rand) ([]string, error) {
	if cfg.Selection == SelectFixed {
		if len(cfg.FixedResources) < cfg.Pilots {
			return nil, fmt.Errorf("core: fixed selection lists %d resources for %d pilots",
				len(cfg.FixedResources), cfg.Pilots)
		}
		return cfg.FixedResources[:cfg.Pilots], nil
	}

	type candidate struct {
		name string
		wait time.Duration
	}
	var pool []candidate
	for _, r := range b.Resources() {
		info := r.Compute()
		if info.TotalCores < pilotCores {
			continue
		}
		c := candidate{name: info.Name, wait: info.SetupTime}
		pool = append(pool, c)
	}
	if len(pool) < cfg.Pilots {
		return nil, fmt.Errorf("core: only %d resource(s) can host a %d-core pilot, need %d",
			len(pool), pilotCores, cfg.Pilots)
	}

	switch cfg.Selection {
	case SelectByPredictedWait:
		sort.SliceStable(pool, func(i, j int) bool { return pool[i].wait < pool[j].wait })
	default: // SelectRandom
		if rng == nil {
			return nil, fmt.Errorf("core: random selection requires an RNG")
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	}
	out := make([]string, cfg.Pilots)
	for i := range out {
		out[i] = pool[i].name
	}
	return out, nil
}

// estimateTx returns the full-concurrency execution-time estimate: the sum
// over stages of each stage's longest task duration.
func estimateTx(w *skeleton.Workload) time.Duration {
	longest := make(map[string]time.Duration)
	for _, t := range w.Tasks {
		if t.Duration > longest[t.Stage] {
			longest[t.Stage] = t.Duration
		}
	}
	var sum time.Duration
	for _, d := range longest {
		sum += d
	}
	return sum
}

// estimateStaging predicts Ts via bundle network queries: all external input
// and output payload over the slowest chosen link.
func estimateStaging(w *skeleton.Workload, b *bundle.Bundle, resources []string) time.Duration {
	bytes := w.ExternalInputBytes() + w.OutputBytes()
	var worst time.Duration
	for _, name := range resources {
		r := b.Resource(name)
		if r == nil {
			continue
		}
		if est := r.EstimateTransfer(bytes); est > worst {
			worst = est
		}
	}
	if worst == 0 {
		// No bundle information: fall back to a conservative 5 MB/s.
		worst = time.Duration(float64(bytes) / 5e6 * float64(time.Second))
	}
	return worst
}
