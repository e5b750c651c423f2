package pilot

import (
	"sort"
	"time"

	"aimes/internal/sim"
)

// agent executes units on an active pilot's cores. Its dispatcher is
// serialized with a per-unit overhead (Config.AgentDispatchOverhead),
// reproducing the launch-rate limits of real pilot agents: with thousands of
// units the stagger becomes visible as the steepening Tx gradient in the
// paper's Figure 3.
type agent struct {
	sys   *System
	pilot *Pilot

	cores int
	used  int

	backlog []*Unit // backlog[head:] is the unit queue, oldest first
	head    int

	dispatchEv sim.Event
	next       *Unit // what dispatchEv will launch; nil while the dispatcher is idle

	running []*Unit // executing units, at their Unit.execSlot
	down    bool
}

func newAgent(sys *System, p *Pilot) *agent {
	a := &agent{sys: sys, pilot: p, cores: p.desc.Cores}
	a.dispatchEv.Init(sim.Func(a.dispatch))
	return a
}

func (a *agent) freeCores() int { return a.cores - a.used }

// enqueue hands a staged unit to the agent.
func (a *agent) enqueue(u *Unit) {
	if a.down {
		return
	}
	if a.head > len(a.backlog)/2 { // mostly vacated, or drained: slide the queue down
		n := copy(a.backlog, a.backlog[a.head:])
		clear(a.backlog[n:])
		a.backlog, a.head = a.backlog[:n], 0
	}
	a.backlog = append(a.backlog, u)
	a.kick()
}

// kick starts the dispatcher if idle.
func (a *agent) kick() {
	if a.down || a.next != nil {
		return
	}
	if a.next = a.pickNext(); a.next != nil {
		a.sys.eng.Arm(&a.dispatchEv, a.sys.cfg.AgentDispatchOverhead)
	}
}

// dispatch is dispatchEv firing: the unit launches unless it left the queue.
func (a *agent) dispatch() {
	u := a.next
	a.next = nil
	if !a.down && u.state == UnitAgentQueued {
		a.launch(u)
	}
	a.kick()
}

// pickNext removes and returns the first queued unit that fits the free
// cores (in-agent backfill over the unit queue), dropping entries that left
// UnitAgentQueued — canceled, or rescheduled elsewhere — as it passes them.
// Units that do not fit keep their place; taking the head is O(1).
func (a *agent) pickNext() *Unit {
	q, free := a.backlog, a.freeCores()
	for i := a.head; i < len(q); i++ {
		u := q[i]
		if u.state == UnitAgentQueued && u.desc.Cores > free {
			continue
		}
		copy(q[a.head+1:i+1], q[a.head:i])
		q[a.head] = nil
		a.head++
		if u.state == UnitAgentQueued {
			return u
		}
	}
	return nil
}

// launch begins executing a unit.
func (a *agent) launch(u *Unit) {
	a.used += u.desc.Cores
	u.transition(UnitExecuting, "")

	duration := u.desc.Duration
	fails := false
	if a.sys.cfg.UnitFailureProb > 0 && a.sys.rng.Float64() < a.sys.cfg.UnitFailureProb {
		failAt := time.Duration(a.sys.rng.Float64() * float64(duration))
		if failAt < duration {
			duration = failAt
			fails = true
		}
	}
	u.execFails, u.execSlot = fails, len(a.running)
	a.running = append(a.running, u)
	a.sys.eng.Arm(&u.execEv, duration)
}

// execution is a Unit as the handler of its execution event.
type execution Unit

func (x *execution) Fire() {
	u := (*Unit)(x)
	a := u.pilot.agent
	last := len(a.running) - 1
	a.running[u.execSlot] = a.running[last]
	a.running[u.execSlot].execSlot = u.execSlot
	a.running[last] = nil
	a.running = a.running[:last]
	a.used -= u.desc.Cores
	if u.execFails {
		a.failed(u)
	} else {
		a.completed(u)
	}
	a.kick()
}

// completed moves a unit to output staging after successful execution.
func (a *agent) completed(u *Unit) {
	u.pilotCommitRelease()
	u.stageOutput()
	u.um.capacityFreed()
}

// failed restarts a unit (up to its restart budget) or fails it.
func (a *agent) failed(u *Unit) {
	u.attempts++
	max := u.desc.MaxRestarts
	if max == 0 {
		max = a.sys.cfg.DefaultMaxRestarts
	}
	if u.attempts <= max {
		// Inputs are already on the resource: requeue on this agent.
		u.transition(UnitAgentQueued, "restart")
		a.enqueue(u)
		return
	}
	u.pilotCommitRelease()
	u.finalize(UnitFailed, "restart budget exhausted")
	u.um.capacityFreed()
}

// shutdown stops the agent: pending dispatch and executions are canceled and
// affected units are returned to the unit manager for rescheduling, tagged
// with the shutdown cause. Units already staging output are unaffected
// (their data has left the node).
func (a *agent) shutdown(cause string) {
	if a.down {
		return
	}
	a.down = true
	// The unit the dispatcher held is in neither list below: it stays bound
	// and UnitManager.reclaimBound picks it up when the pilot goes final.
	a.sys.eng.Cancel(&a.dispatchEv)
	a.next = nil
	victims := a.running
	a.running = nil
	for _, u := range victims {
		a.sys.eng.Cancel(&u.execEv)
		a.used -= u.desc.Cores
	}
	// running is in no meaningful order; sort for deterministic replay.
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	for _, u := range a.backlog[a.head:] {
		if u.state == UnitAgentQueued {
			victims = append(victims, u)
		}
	}
	a.backlog, a.head = nil, 0
	for _, u := range victims {
		u.um.returnUnit(u, "pilot "+a.pilot.id+" "+cause)
	}
}
