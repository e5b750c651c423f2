// Package pilot implements the pilot abstraction of the paper, modeled on
// RADICAL-Pilot: a pilot is a placeholder job submitted to a resource's
// batch scheduler; once active it accepts and executes compute units
// directly, trading per-task scheduler overhead for a single pilot-job
// overhead. The package provides a PilotManager (pilot lifecycle over SAGA),
// a UnitManager with pluggable unit schedulers (direct, round-robin and the
// late-binding backfill scheduler of the paper's experiments 3 and 4), and a
// per-pilot agent that stages data, dispatches units with a realistic
// serialized overhead, executes them, restarts failures, and honors
// walltime. Every state transition of every pilot and unit is timestamped
// into a trace.Sink — the "self-introspection" the paper calls out as
// missing from other pilot systems — and the one place that writes a unit's
// transitions (Unit.transition) also accumulates, per UnitManager, how long
// at least one unit was executing and at least one was staging: the Tx and
// Ts of the paper's TTC decomposition (UnitManager.Covered), so a report
// never replays the trace.
package pilot

import (
	"fmt"
	"time"
)

// PilotState enumerates the pilot lifecycle.
type PilotState int

// Pilot lifecycle states.
const (
	PilotNew       PilotState = iota // described, not yet submitted
	PilotLaunching                   // submitted through SAGA, in transit
	PilotPending                     // queued at the resource
	PilotActive                      // agent running, accepting units
	PilotDone                        // retired normally (workload done or walltime)
	PilotCanceled                    // canceled by the application
	PilotFailed                      // resource-level failure
)

var pilotStateNames = [...]string{
	PilotNew:       "NEW",
	PilotLaunching: "LAUNCHING",
	PilotPending:   "PENDING",
	PilotActive:    "ACTIVE",
	PilotDone:      "DONE",
	PilotCanceled:  "CANCELED",
	PilotFailed:    "FAILED",
}

func (s PilotState) String() string {
	if s >= 0 && int(s) < len(pilotStateNames) {
		return pilotStateNames[s]
	}
	return fmt.Sprintf("PilotState(%d)", int(s))
}

// Final reports whether the state is terminal.
func (s PilotState) Final() bool {
	return s == PilotDone || s == PilotCanceled || s == PilotFailed
}

// UnitState enumerates the compute-unit lifecycle.
type UnitState int8

// Unit lifecycle states.
const (
	UnitNew           UnitState = iota // described, not yet submitted
	UnitScheduling                     // waiting for the unit scheduler
	UnitStagingInput                   // input files moving to the pilot's resource
	UnitAgentQueued                    // inputs ready, waiting for agent cores
	UnitExecuting                      // running on pilot cores
	UnitStagingOutput                  // outputs moving back to the origin
	UnitDone                           // completed, outputs staged
	UnitFailed                         // exhausted restarts or unplaceable
	UnitCanceled                       // canceled by the application
)

var unitStateNames = [...]string{
	UnitNew:           "NEW",
	UnitScheduling:    "SCHEDULING",
	UnitStagingInput:  "STAGING_INPUT",
	UnitAgentQueued:   "AGENT_QUEUED",
	UnitExecuting:     "EXECUTING",
	UnitStagingOutput: "STAGING_OUTPUT",
	UnitDone:          "DONE",
	UnitFailed:        "FAILED",
	UnitCanceled:      "CANCELED",
}

func (s UnitState) String() string {
	if s >= 0 && int(s) < len(unitStateNames) {
		return unitStateNames[s]
	}
	return fmt.Sprintf("UnitState(%d)", int(s))
}

// Final reports whether the state is terminal.
func (s UnitState) Final() bool {
	return s == UnitDone || s == UnitFailed || s == UnitCanceled
}

// PilotDescription requests one pilot.
type PilotDescription struct {
	// Resource names the target site (must be registered in the SAGA
	// session).
	Resource string
	// Cores is the pilot size.
	Cores int
	// Walltime is the requested duration.
	Walltime time.Duration
}

// Validate reports a descriptive error for malformed descriptions.
func (d PilotDescription) Validate() error {
	if d.Resource == "" {
		return fmt.Errorf("pilot: description needs a resource")
	}
	if d.Cores <= 0 {
		return fmt.Errorf("pilot: description requests %d cores", d.Cores)
	}
	if d.Walltime <= 0 {
		return fmt.Errorf("pilot: description requests walltime %v", d.Walltime)
	}
	return nil
}
