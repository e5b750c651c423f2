package core

import (
	"aimes/internal/skeleton"
)

// Descriptor is the serializable form of a job before enactment: the
// workload, the strategy derivation knobs (or a pre-derived strategy to
// enact verbatim), and the optional runtime-adaptation policy. It is the
// queued half of the queued-vs-enacted distinction that Prepare makes
// explicit — a descriptor holds no engine state, no randomness and no trace,
// so it can be handed to any manager: another shard's during cross-shard
// migration, or another process's over the worker-backend wire protocol.
// Every field is plain data (JSON-friendly) by construction.
type Descriptor struct {
	// Workload is the concrete task set to execute.
	Workload *skeleton.Workload `json:"workload"`
	// Strategy, when non-nil, is enacted verbatim and Config is ignored.
	Strategy *Strategy `json:"strategy,omitempty"`
	// Config holds the derivation knobs used when Strategy is nil. The
	// enacting manager derives against its own bundle and randomness, which
	// is what makes migration namespace- and seed-safe.
	Config StrategyConfig `json:"config"`
	// Adaptive, when non-nil, enables runtime strategy adaptation.
	Adaptive *AdaptiveConfig `json:"adaptive,omitempty"`
}

// Resolve returns the strategy a descriptor enacts on this manager: the
// pre-derived one verbatim, or a fresh derivation against the manager's
// bundle and randomness. Resolving against different managers legitimately
// yields different strategies — that is the re-derivation half of the
// migration-safe handoff.
func (m *Manager) Resolve(d *Descriptor) (Strategy, error) {
	if d.Strategy != nil {
		return *d.Strategy, nil
	}
	return Derive(d.Workload, m.bundle, d.Config, m.rng)
}
