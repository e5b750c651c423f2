package pilot

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"aimes/internal/netsim"
	"aimes/internal/sim"
)

// Unit is one compute unit under management.
type Unit struct {
	desc  UnitDescription
	id    string // trace entity: "unit.<name>"
	state UnitState
	um    *UnitManager

	pilot    *Pilot
	attempts int
	// committed reports whether this unit currently counts against its
	// pilot's committed cores.
	committed bool

	transfer *netsim.Transfer

	// The unit's run on its pilot's agent: the event that ends it, whether
	// it ends in an injected failure, and the unit's index in agent.running.
	execEv    sim.Event
	execFails bool
	execSlot  int

	// Ready-set bookkeeping (see UnitManager.ready): the unit's submission
	// index, how many of its dependencies are not DONE yet, and the units
	// waiting on this one.
	index      int
	openDeps   int
	dependents []*Unit
}

// Name returns the unit name from its description.
func (u *Unit) Name() string { return u.desc.Name }

// Description returns the unit description.
func (u *Unit) Description() UnitDescription { return u.desc }

// State returns the current state.
func (u *Unit) State() UnitState { return u.state }

// Pilot returns the pilot the unit is bound to, or nil.
func (u *Unit) Pilot() *Pilot { return u.pilot }

// Attempts reports how many failed execution attempts occurred.
func (u *Unit) Attempts() int { return u.attempts }

func (u *Unit) transition(state UnitState, detail string) {
	u.state = state
	u.um.sys.rec.Record(u.um.sys.eng.Now(), u.id, state.String(), detail)
}

// finalize moves the unit to a terminal state and notifies the manager.
func (u *Unit) finalize(state UnitState, detail string) {
	u.transition(state, detail)
	u.um.unitFinal(u)
}

// pilotCommitRelease releases the unit's core commitment on its pilot.
func (u *Unit) pilotCommitRelease() {
	if u.committed && u.pilot != nil {
		u.um.committed[u.pilot] -= u.desc.Cores
		u.committed = false
	}
}

// stageOutput starts the output transfer back to the origin.
func (u *Unit) stageOutput() {
	if u.desc.OutputBytes <= 0 {
		u.finalize(UnitDone, "")
		return
	}
	link := u.um.sys.links(u.pilot.desc.Resource)
	var buf [32]byte
	detail := append(strconv.AppendInt(buf[:0], u.desc.OutputBytes, 10), " bytes"...)
	u.transition(UnitStagingOutput, string(detail))
	u.transfer = link.StartFor(u.desc.OutputBytes, (*staging)(u))
}

// staging is a Unit as the handler of its staging transfer's last byte;
// which way the data went is in the unit's state.
type staging Unit

func (s *staging) Fire() {
	u := (*Unit)(s)
	u.transfer = nil
	if u.state == UnitStagingOutput {
		u.finalize(UnitDone, "")
		return
	}
	u.um.staged(u)
}

// Scheduler places eligible units onto pilots. Implementations must not
// mutate their arguments. The paper's execution strategies differ exactly
// here: early binding uses Direct (one pilot, bound before activation);
// late binding uses Backfill (units flow to whichever active pilot has free
// capacity).
type Scheduler interface {
	// Name identifies the scheduler in traces and configuration.
	Name() string
	// Place returns unit→pilot assignments. Units left unassigned remain
	// eligible for the next call.
	Place(ready []*Unit, pilots []*Pilot, committed map[*Pilot]int) []Assignment
}

// Assignment binds one unit to one pilot.
type Assignment struct {
	Unit  *Unit
	Pilot *Pilot
}

// Direct assigns every unit to the first non-final pilot immediately — the
// paper's early-binding scheduler (experiments 1 and 2 use it with a single
// pilot).
type Direct struct{}

// Name implements Scheduler.
func (Direct) Name() string { return "direct" }

// Place implements Scheduler.
func (Direct) Place(ready []*Unit, pilots []*Pilot, _ map[*Pilot]int) []Assignment {
	var target *Pilot
	for _, p := range pilots {
		if !p.State().Final() {
			target = p
			break
		}
	}
	if target == nil {
		return nil
	}
	out := make([]Assignment, 0, len(ready))
	for _, u := range ready {
		out = append(out, Assignment{Unit: u, Pilot: target})
	}
	return out
}

// RoundRobin distributes units evenly across non-final pilots at submission
// time — early binding over multiple pilots (the combination the paper
// discards as dominated, kept here for the ablation benchmarks).
type RoundRobin struct{}

// Name implements Scheduler.
func (RoundRobin) Name() string { return "round-robin" }

// Place implements Scheduler.
func (RoundRobin) Place(ready []*Unit, pilots []*Pilot, _ map[*Pilot]int) []Assignment {
	var alive []*Pilot
	for _, p := range pilots {
		if !p.State().Final() {
			alive = append(alive, p)
		}
	}
	if len(alive) == 0 {
		return nil
	}
	out := make([]Assignment, 0, len(ready))
	for i, u := range ready {
		out = append(out, Assignment{Unit: u, Pilot: alive[i%len(alive)]})
	}
	return out
}

// Backfill is the paper's late-binding scheduler: units stay with the unit
// manager until a pilot is active with uncommitted cores, then flow to it.
// The first pilot to clear its queue starts executing the workload; others
// join as they activate.
type Backfill struct{}

// Name implements Scheduler.
func (Backfill) Name() string { return "backfill" }

// Place implements Scheduler.
func (Backfill) Place(ready []*Unit, pilots []*Pilot, committed map[*Pilot]int) []Assignment {
	type slot struct {
		pilot *Pilot
		free  int
	}
	var buf [8]slot
	slots := buf[:0]
	total := 0 // free cores over all active pilots
	for _, p := range pilots {
		if p.State() == PilotActive {
			free := p.desc.Cores - committed[p]
			slots = append(slots, slot{p, free})
			if free > 0 {
				total += free
			}
		}
	}
	var out []Assignment
	for _, u := range ready {
		if total <= 0 {
			// Every unit needs at least one core: nothing further fits.
			break
		}
		for i := range slots {
			if slots[i].free >= u.desc.Cores {
				slots[i].free -= u.desc.Cores
				total -= u.desc.Cores
				out = append(out, Assignment{Unit: u, Pilot: slots[i].pilot})
				break
			}
		}
	}
	return out
}

// UnitManager accepts units, schedules them over pilots, manages data
// staging and dependencies, and reschedules units that lose their pilot —
// RADICAL-Pilot's UnitManager.
type UnitManager struct {
	sys       *System
	scheduler Scheduler
	pilots    []*Pilot
	units     []*Unit
	byName    map[string]*Unit
	committed map[*Pilot]int

	// ready holds, in submission order, the units in UnitScheduling with no
	// open dependency — what the scheduler is offered. It is maintained at
	// the transitions that change it, never rebuilt from units. Units
	// finalized while waiting stay in it until the next place; readyStale
	// says there are some.
	ready      []*Unit
	readyStale bool
	// onPlace, when set by a test, sees the ready list of every place.
	onPlace func(ready []*Unit)

	placeEv     sim.Event // the coalesced place, due now while placeQueued
	placeQueued bool
	doneCount   int
	onDone      []func()
}

// NewUnitManager creates a unit manager with the given scheduler.
func NewUnitManager(sys *System, sched Scheduler) *UnitManager {
	um := &UnitManager{
		sys:       sys,
		scheduler: sched,
		byName:    make(map[string]*Unit),
		committed: make(map[*Pilot]int),
	}
	um.placeEv.Init(sim.Func(func() {
		um.placeQueued = false
		um.place()
	}))
	return um
}

// Scheduler returns the active unit scheduler.
func (um *UnitManager) Scheduler() Scheduler { return um.scheduler }

// AddPilot registers a pilot with the manager and reacts to its state
// changes.
func (um *UnitManager) AddPilot(p *Pilot) {
	um.pilots = append(um.pilots, p)
	p.onState = append(p.onState, func(p *Pilot) { um.pilotChanged(p) })
	// If the pilot is already active (added late), pick up queued units.
	if p.State() == PilotActive {
		um.pilotChanged(p)
	}
}

// Pilots returns registered pilots.
func (um *UnitManager) Pilots() []*Pilot {
	cp := make([]*Pilot, len(um.pilots))
	copy(cp, um.pilots)
	return cp
}

// Units returns all managed units in submission order.
func (um *UnitManager) Units() []*Unit {
	cp := make([]*Unit, len(um.units))
	copy(cp, um.units)
	return cp
}

// Unit returns the named unit, or nil.
func (um *UnitManager) Unit(name string) *Unit { return um.byName[name] }

// OnCompletion registers a callback fired once when every unit is terminal.
func (um *UnitManager) OnCompletion(fn func()) {
	um.onDone = append(um.onDone, fn)
}

// Done reports whether all units are terminal.
func (um *UnitManager) Done() bool {
	return len(um.units) > 0 && um.doneCount == len(um.units)
}

// Submit accepts unit descriptions for execution.
func (um *UnitManager) Submit(descs []UnitDescription) error {
	for _, d := range descs {
		if err := d.Validate(); err != nil {
			return err
		}
		if _, dup := um.byName[d.Name]; dup {
			return fmt.Errorf("pilot: duplicate unit %q", d.Name)
		}
		deps, err := um.dependencies(d)
		if err != nil {
			return err
		}
		d.Deps = deps
		u := &Unit{desc: d, id: "unit." + d.Name, um: um, index: len(um.units)}
		u.execEv.Init((*execution)(u))
		for _, dep := range deps {
			if producer := um.byName[dep]; producer.state != UnitDone {
				u.openDeps++
				producer.dependents = append(producer.dependents, u)
			}
		}
		um.units = append(um.units, u)
		um.byName[d.Name] = u
		u.transition(UnitNew, "")
		u.transition(UnitScheduling, "")
		if u.openDeps == 0 {
			um.ready = append(um.ready, u) // the highest index so far
		}
	}
	um.schedulePlace()
	return nil
}

// dependencies returns the units d waits for: its explicit Deps, then the
// producers of its inputs, each once, all of which must have been submitted.
func (um *UnitManager) dependencies(d UnitDescription) ([]string, error) {
	names := d.Deps[:len(d.Deps):len(d.Deps)] // appending copies: d.Deps is the caller's
	for _, f := range d.Inputs {
		if f.Producer != "" {
			names = append(names, f.Producer)
		}
	}
	if len(names) == 0 {
		return nil, nil
	}
	seen := make(map[string]bool, len(names))
	deps := make([]string, 0, len(names))
	for _, dep := range names {
		if seen[dep] {
			continue
		}
		if _, ok := um.byName[dep]; !ok {
			return nil, fmt.Errorf("pilot: unit %q depends on unknown unit %q (submit producers first)", d.Name, dep)
		}
		seen[dep] = true
		deps = append(deps, dep)
	}
	return deps, nil
}

// CancelAll cancels every non-final unit.
func (um *UnitManager) CancelAll() {
	for _, u := range um.units {
		um.Cancel(u)
	}
}

// Cancel terminates one unit.
func (um *UnitManager) Cancel(u *Unit) {
	if u.state.Final() {
		return
	}
	if u.transfer != nil && u.pilot != nil {
		um.sys.links(u.pilot.desc.Resource).Cancel(u.transfer)
		u.transfer = nil
	}
	u.pilotCommitRelease()
	if u.state == UnitScheduling {
		um.readyStale = true
	}
	u.finalize(UnitCanceled, "")
}

// schedulePlace coalesces placement triggers within one timestamp.
func (um *UnitManager) schedulePlace() {
	if um.placeQueued {
		return
	}
	um.placeQueued = true
	um.sys.eng.Arm(&um.placeEv, 0)
}

// place runs the scheduler over the ready units and enacts its assignments.
func (um *UnitManager) place() {
	if um.readyStale {
		um.compactReady()
	}
	ready := um.ready
	if um.onPlace != nil {
		um.onPlace(ready)
	}
	if len(ready) == 0 {
		um.failIfOrphaned()
		return
	}
	assignments := um.scheduler.Place(ready, um.pilots, um.committed)
	for _, as := range assignments {
		um.bind(as.Unit, as.Pilot)
	}
	// At most len(assignments) units were bound. The schedulers assign in
	// ready order, so they are normally the head of the list; when the head
	// holds that many bound units, those are all of them.
	n := 0
	for n < len(assignments) && n < len(ready) && ready[n].state != UnitScheduling {
		n++
	}
	if n == len(assignments) {
		um.ready = ready[n:]
	} else {
		um.compactReady()
	}
	um.failIfOrphaned()
}

// compactReady drops the units that left UnitScheduling from the ready list.
func (um *UnitManager) compactReady() {
	um.ready = slices.DeleteFunc(um.ready, func(u *Unit) bool { return u.state != UnitScheduling })
	um.readyStale = false
}

// makeReady puts a unit in UnitScheduling with no open dependency on the
// ready list, at its place in submission order.
func (um *UnitManager) makeReady(u *Unit) {
	i := sort.Search(len(um.ready), func(i int) bool { return um.ready[i].index > u.index })
	um.ready = slices.Insert(um.ready, i, u)
}

// bind attaches a unit to a pilot and starts input staging.
func (um *UnitManager) bind(u *Unit, p *Pilot) {
	if u.state != UnitScheduling || p.State().Final() {
		return
	}
	u.pilot = p
	u.committed = true
	um.committed[p] += u.desc.Cores

	bytes := um.stageInBytes(u, p)
	var buf [96]byte
	detail := append(append(buf[:0], p.id...), ", "...)
	detail = append(strconv.AppendInt(detail, bytes, 10), " bytes"...)
	u.transition(UnitStagingInput, string(detail))
	if bytes <= 0 {
		um.staged(u)
		return
	}
	u.transfer = um.sys.links(p.desc.Resource).StartFor(bytes, (*staging)(u))
}

// stageInBytes computes the payload that must cross the WAN for a unit bound
// to pilot p: external inputs always move; dependency inputs move unless the
// producer ran on the same pilot (then they are already on the resource's
// filesystem).
func (um *UnitManager) stageInBytes(u *Unit, p *Pilot) int64 {
	var n int64
	for _, f := range u.desc.Inputs {
		if f.Producer == "" {
			n += f.Bytes
			continue
		}
		producer := um.byName[f.Producer]
		if producer == nil || producer.pilot != p {
			n += f.Bytes
		}
	}
	return n
}

// staged moves a unit to the agent queue once inputs are on the resource.
func (um *UnitManager) staged(u *Unit) {
	if u.state != UnitStagingInput {
		return
	}
	u.transition(UnitAgentQueued, "")
	if u.pilot.State() == PilotActive && u.pilot.agent != nil {
		u.pilot.agent.enqueue(u)
	}
	// Otherwise the unit waits; pilotChanged hands it to the agent on
	// activation.
}

// pilotChanged reacts to pilot state transitions.
func (um *UnitManager) pilotChanged(p *Pilot) {
	switch {
	case p.State() == PilotActive:
		// Hand any units that finished staging during the queue wait to the
		// fresh agent.
		for _, u := range um.units {
			if u.pilot == p && u.state == UnitAgentQueued {
				p.agent.enqueue(u)
			}
		}
		um.schedulePlace()
	case p.State().Final():
		um.reclaimBound(p)
		um.schedulePlace()
	}
}

// reclaimBound returns non-final units still bound to a dead pilot to the
// scheduler. The agent's shutdown already returned units it knew about
// (executing or agent-queued on an active pilot); this catches units whose
// pilot died before activation or mid-staging — in-flight transfers to the
// dead resource are abandoned.
func (um *UnitManager) reclaimBound(p *Pilot) {
	cause := "retired"
	if p.State() == PilotFailed {
		cause = "lost"
	}
	for _, u := range um.units {
		if u.pilot != p {
			continue
		}
		switch u.state {
		case UnitStagingInput, UnitAgentQueued:
			if u.transfer != nil {
				um.sys.links(p.desc.Resource).Cancel(u.transfer)
				u.transfer = nil
			}
			um.returnUnit(u, "pilot "+p.id+" "+cause)
		}
	}
}

// returnUnit receives a unit back from a dying agent for rescheduling.
func (um *UnitManager) returnUnit(u *Unit, reason string) {
	if u.state.Final() {
		return
	}
	u.pilotCommitRelease()
	u.pilot = nil
	u.transition(UnitScheduling, reason)
	um.makeReady(u) // it was bound, so its dependencies are done
	um.schedulePlace()
}

// capacityFreed is called by agents when cores free up.
func (um *UnitManager) capacityFreed() {
	um.schedulePlace()
}

// unitFinal accounts for a terminal unit and fires completion callbacks.
func (um *UnitManager) unitFinal(u *Unit) {
	u.pilotCommitRelease()
	um.doneCount++
	if u.state == UnitDone {
		for _, d := range u.dependents {
			d.openDeps--
			if d.openDeps == 0 && d.state == UnitScheduling {
				um.makeReady(d)
			}
		}
		u.dependents = nil
		um.schedulePlace()
	}
	if um.doneCount == len(um.units) {
		for _, fn := range um.onDone {
			fn()
		}
		um.onDone = nil
	}
}

// failIfOrphaned fails units that can never be placed because every pilot is
// terminal.
func (um *UnitManager) failIfOrphaned() {
	if len(um.pilots) == 0 {
		return
	}
	for _, p := range um.pilots {
		if !p.State().Final() {
			return
		}
	}
	um.readyStale = true // every unit still on the ready list fails here
	for _, u := range um.units {
		if u.state == UnitScheduling || u.state == UnitStagingInput || u.state == UnitAgentQueued {
			if u.transfer != nil && u.pilot != nil {
				um.sys.links(u.pilot.desc.Resource).Cancel(u.transfer)
				u.transfer = nil
			}
			u.pilotCommitRelease()
			u.finalize(UnitFailed, "no pilots available")
		}
	}
}
