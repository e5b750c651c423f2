package pilot

import (
	"slices"
	"strings"
	"time"

	"aimes/internal/sim"
)

// agent executes units on an active pilot's cores. Its dispatcher is
// serialized with a per-unit overhead (Config.AgentDispatchOverhead),
// reproducing the launch-rate limits of real pilot agents: with thousands of
// units the stagger becomes visible as the steepening Tx gradient in the
// paper's Figure 3. Each Pilot carries its agent, started on activation.
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

// start readies the agent of an activated pilot. Its queue and run list
// are sized once, for as many units as can be on it at a time: one per core,
// and no more than the job has.
func (a *agent) start(p *Pilot) {
	n := p.desc.Cores
	if p.um != nil {
		n = min(n, len(p.um.units))
	}
	lists := make([]*Unit, 2*n)
	a.sys, a.pilot, a.cores = p.sys, p, p.desc.Cores
	a.backlog, a.running = lists[:0:n], lists[n:n]
	a.dispatchEv.Init((*dispatcher)(a))
}

// dispatcher is an agent as the handler of its dispatch event.
type dispatcher agent

func (d *dispatcher) Fire() { (*agent)(d).dispatch() }

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
		if u.state == UnitAgentQueued && u.task.Cores > free {
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
	a.used += u.task.Cores
	u.transition(UnitExecuting, "")

	duration := u.task.Duration
	fails := false
	if a.sys.cfg.UnitFailureProb > 0 && a.sys.rng.Float64() < a.sys.cfg.UnitFailureProb {
		failAt := time.Duration(a.sys.rng.Float64() * float64(duration))
		if failAt < duration {
			duration = failAt
			fails = true
		}
	}
	u.execFails, u.execSlot = fails, int32(len(a.running))
	a.running = append(a.running, u)
	// A running unit stages nothing, so its staging transfer's timer is free
	// to end the run.
	ev := u.xfer.Timer()
	ev.Init((*execution)(u))
	a.sys.eng.Arm(ev, duration)
}

// execution is a Unit as the handler of the event that ends its run: its
// staging transfer's timer.
type execution Unit

func (x *execution) Fire() {
	u := (*Unit)(x)
	a := &u.pilot.agent
	a.vacate(u)
	if u.execFails {
		a.failed(u)
	} else {
		a.completed(u)
	}
	a.kick()
}

// vacate takes an executing unit off the run list and gives back its cores.
func (a *agent) vacate(u *Unit) {
	last := len(a.running) - 1
	a.running[u.execSlot] = a.running[last]
	a.running[u.execSlot].execSlot = u.execSlot
	a.running[last] = nil
	a.running = a.running[:last]
	a.used -= u.task.Cores
}

// abort ends an executing unit's run before its time: the unit is canceled.
func (a *agent) abort(u *Unit) {
	a.sys.eng.Cancel(u.xfer.Timer())
	a.vacate(u)
	a.kick()
}

// completed moves a unit to output staging after successful execution.
func (a *agent) completed(u *Unit) {
	u.pilotCommitRelease()
	u.stageOutput()
	u.um.capacityFreed()
}

// maxRestarts is every unit's budget of automatic restarts after failures.
const maxRestarts = 3

// failed restarts a unit (up to maxRestarts) or fails it.
func (a *agent) failed(u *Unit) {
	u.attempts++
	if u.attempts <= maxRestarts {
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
		a.sys.eng.Cancel(u.xfer.Timer())
		a.used -= u.task.Cores
	}
	// running is in no meaningful order; sort for deterministic replay.
	slices.SortFunc(victims, func(x, y *Unit) int { return strings.Compare(x.task.ID, y.task.ID) })
	for _, u := range a.backlog[a.head:] {
		if u.state == UnitAgentQueued {
			victims = append(victims, u)
		}
	}
	a.backlog, a.head = nil, 0
	for _, u := range victims {
		u.um.returnUnit(u, "pilot "+a.pilot.ID()+" "+cause)
	}
}
