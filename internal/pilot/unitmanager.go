package pilot

import (
	"fmt"
	"iter"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"aimes/internal/netsim"
	"aimes/internal/sim"
	"aimes/internal/skeleton"
)

// Unit is one compute unit under management. A job's units are one slab, so
// every byte here is paid per task.
type Unit struct {
	task  *skeleton.Task // the element of the slice Submit was given
	id    string         // trace entity: "unit.<task ID>"
	um    *UnitManager
	pilot *Pilot

	state UnitState
	// committed reports whether this unit currently counts against its
	// pilot's committed cores.
	committed bool
	// execFails reports whether the unit's run ends in an injected failure.
	execFails bool
	attempts  int32

	// xfer is the unit's staging transfer, input or output: a unit never
	// stages both ways at once, and never stages while it runs, so its run
	// on its pilot's agent ends on the transfer's timer (see agent.launch).
	xfer netsim.Transfer
	// execSlot is the unit's index in agent.running while it runs.
	execSlot int32

	// Ready-set bookkeeping (see UnitManager.ready): the unit's submission
	// index, how many of its dependencies are not DONE yet, and the head of
	// the list of units waiting on this one (UnitManager.edges).
	index      int32
	openDeps   int32
	dependents edgeRef
}

// Task returns the task the unit runs, which belongs to the caller of Submit.
func (u *Unit) Task() *skeleton.Task { return u.task }

// State returns the current state.
func (u *Unit) State() UnitState { return u.state }

// Pilot returns the pilot the unit is bound to, or nil.
func (u *Unit) Pilot() *Pilot { return u.pilot }

// Attempts reports how many failed execution attempts occurred.
func (u *Unit) Attempts() int { return int(u.attempts) }

// transition is the only writer of unit.* records, and so also where the
// manager's Tx and Ts accumulators (UnitManager.Covered) are kept.
func (u *Unit) transition(state UnitState, detail string) {
	um, now := u.um, u.um.sys.eng.Now()
	if c := um.coverOf(u.state); c != nil {
		c.leave(now)
	}
	if c := um.coverOf(state); c != nil {
		c.enter(now)
	}
	u.state = state
	um.sys.rec.Record(now, u.id, state.String(), detail)
}

// abandonStaging cancels the unit's staging transfer if one is in flight.
func (u *Unit) abandonStaging() {
	if u.pilot != nil {
		u.um.sys.links(u.pilot.desc.Resource).Cancel(&u.xfer)
	}
}

// finalize moves the unit to a terminal state and notifies the manager.
func (u *Unit) finalize(state UnitState, detail string) {
	u.transition(state, detail)
	u.um.unitFinal(u)
}

// pilotCommitRelease releases the unit's core commitment on its pilot.
func (u *Unit) pilotCommitRelease() {
	if u.committed && u.pilot != nil {
		u.um.committed[u.pilot] -= u.task.Cores
		u.committed = false
	}
}

// stageOutput starts the output transfer back to the origin.
func (u *Unit) stageOutput() {
	bytes := u.task.OutputBytes()
	if bytes <= 0 {
		u.finalize(UnitDone, "")
		return
	}
	um := u.um
	if d := &um.outDetail; d.text == "" || d.bytes != bytes {
		var buf [32]byte
		d.bytes, d.text = bytes, string(append(strconv.AppendInt(buf[:0], bytes, 10), " bytes"...))
	}
	u.transition(UnitStagingOutput, um.outDetail.text)
	um.sys.links(u.pilot.desc.Resource).StartInto(&u.xfer, bytes, (*staging)(u))
}

// staging is a Unit as the handler of its staging transfer's last byte;
// which way the data went is in the unit's state.
type staging Unit

func (s *staging) Fire() {
	u := (*Unit)(s)
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
	// Place appends unit→pilot assignments to dst, which it is given empty,
	// and returns it. Units left unassigned remain eligible for the next
	// call.
	Place(dst []Assignment, ready []*Unit, pilots []*Pilot, committed map[*Pilot]int) []Assignment
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

// Place implements Scheduler.
func (Direct) Place(dst []Assignment, ready []*Unit, pilots []*Pilot, _ map[*Pilot]int) []Assignment {
	var target *Pilot
	for _, p := range pilots {
		if !p.State().Final() {
			target = p
			break
		}
	}
	if target == nil {
		return dst
	}
	dst = slices.Grow(dst, len(ready))
	for _, u := range ready {
		dst = append(dst, Assignment{Unit: u, Pilot: target})
	}
	return dst
}

// RoundRobin distributes units evenly across non-final pilots at submission
// time — early binding over multiple pilots (the combination the paper
// discards as dominated, kept here for the ablation benchmarks).
type RoundRobin struct{}

// Place implements Scheduler.
func (RoundRobin) Place(dst []Assignment, ready []*Unit, pilots []*Pilot, _ map[*Pilot]int) []Assignment {
	var alive []*Pilot
	for _, p := range pilots {
		if !p.State().Final() {
			alive = append(alive, p)
		}
	}
	if len(alive) == 0 {
		return dst
	}
	dst = slices.Grow(dst, len(ready))
	for i, u := range ready {
		dst = append(dst, Assignment{Unit: u, Pilot: alive[i%len(alive)]})
	}
	return dst
}

// Backfill is the paper's late-binding scheduler: units stay with the unit
// manager until a pilot is active with uncommitted cores, then flow to it.
// The first pilot to clear its queue starts executing the workload; others
// join as they activate.
type Backfill struct{}

// Place implements Scheduler.
func (Backfill) Place(dst []Assignment, ready []*Unit, pilots []*Pilot, committed map[*Pilot]int) []Assignment {
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
	for _, u := range ready {
		if total <= 0 {
			// Every unit needs at least one core: nothing further fits.
			break
		}
		for i := range slots {
			if slots[i].free >= u.task.Cores {
				if len(dst) == 0 { // at most one unit per free core fits
					dst = slices.Grow(dst, min(len(ready), total))
				}
				slots[i].free -= u.task.Cores
				total -= u.task.Cores
				dst = append(dst, Assignment{Unit: u, Pilot: slots[i].pilot})
				break
			}
		}
	}
	return dst
}

// UnitManager accepts units, schedules them over pilots, manages data
// staging and dependencies, and reschedules units that lose their pilot —
// RADICAL-Pilot's UnitManager.
type UnitManager struct {
	sys       *System
	scheduler Scheduler
	pilots    []*Pilot
	units     []*Unit
	names     skeleton.Index // each unit's position in units, by task ID
	committed map[*Pilot]int

	// ready holds, in submission order, the units in UnitScheduling with no
	// open dependency — what the scheduler is offered. It is maintained at
	// the transitions that change it, never rebuilt from units. Units
	// finalized while waiting stay in it until the next place; readyStale
	// says there are some.
	ready      []*Unit
	readyStale bool
	// edges holds every unit's list of dependents, newest first: a unit's
	// dependents field refers to its first edge, and each edge to the next.
	// A bag of tasks has none.
	edges []edge
	// onPlace, when set by a test, sees the ready list of every place.
	onPlace func(ready []*Unit)
	// assign is place's scratch, reused from one place to the next: a
	// late-binding job places once per freed core, and a list per place
	// would make its allocation count follow its event order.
	assign []Assignment

	placeEv     sim.Event // the coalesced place, due now while placeQueued
	placeQueued bool
	doneCount   int
	onDone      []func()

	// execCover and stageCover cover the time at least one unit spent in
	// UnitExecuting and in either staging state: the report's Tx and Ts.
	execCover, stageCover cover

	// The details of the last STAGING_INPUT and STAGING_OUTPUT records. The
	// units of a bag move the same payload, so nearly every unit reuses them.
	inDetail struct {
		pilot *Pilot
		bytes int64
		text  string
	}
	outDetail struct {
		bytes int64
		text  string
	}
}

// edge is one entry of a list of dependents: the dependent's index in
// UnitManager.units and the list's next edge.
type edge struct {
	unit int32
	next edgeRef
}

// edgeRef refers to an edge: its index in UnitManager.edges plus one, 0 at
// the end of a list (so a unit's zero value has no dependents).
type edgeRef int32

// cover accumulates the union of the spans a set of units spends in a state,
// at the transitions into and out of it. Engines fire in time order and
// sim.Time is integer nanoseconds, so the total equals the interval union
// over the same spans exactly.
type cover struct {
	open  int      // units in the state now
	since sim.Time // when open last left 0
	total sim.Time // covered time, up to the last return of open to 0
}

func (c *cover) enter(now sim.Time) {
	if c.open == 0 {
		c.since = now
	}
	c.open++
}

func (c *cover) leave(now sim.Time) {
	c.open--
	if c.open == 0 {
		c.total += now - c.since
	}
}

// coverOf returns the accumulator a unit in state s counts in, or nil.
func (um *UnitManager) coverOf(s UnitState) *cover {
	switch s {
	case UnitExecuting:
		return &um.execCover
	case UnitStagingInput, UnitStagingOutput:
		return &um.stageCover
	}
	return nil
}

// Covered reports the time during which at least one unit was executing and
// at least one was staging, input or output — the unions of the units'
// per-attempt spans, the paper's Tx and Ts — up to the last instant no unit
// was: the whole run once every unit is final.
func (um *UnitManager) Covered() (executing, staging time.Duration) {
	return um.execCover.total.Duration(), um.stageCover.total.Duration()
}

// NewUnitManager creates a unit manager with the given scheduler, with room
// for the given number of pilots.
func NewUnitManager(sys *System, sched Scheduler, pilots int) *UnitManager {
	um := &UnitManager{
		sys:       sys,
		scheduler: sched,
		pilots:    make([]*Pilot, 0, pilots),
		committed: make(map[*Pilot]int),
	}
	um.placeEv.Init((*placement)(um))
	return um
}

// placement is a UnitManager as the handler of its place event.
type placement UnitManager

func (p *placement) Fire() {
	um := (*UnitManager)(p)
	um.placeQueued = false
	um.place()
}

// AddPilot registers a pilot with the manager and reacts to its state
// changes. A pilot serves one unit manager.
func (um *UnitManager) AddPilot(p *Pilot) {
	if p.um != nil {
		panic("pilot: " + p.id + " added to a second unit manager")
	}
	um.pilots = append(um.pilots, p)
	p.um = um
	// If the pilot is already active (added late), pick up queued units.
	if p.State() == PilotActive {
		um.pilotChanged(p)
	}
}

// All iterates over the managed units in submission order without copying
// them; the caller must not submit while it does.
func (um *UnitManager) All() iter.Seq[*Unit] { return slices.Values(um.units) }

// OnCompletion registers a callback fired once when every unit is terminal.
func (um *UnitManager) OnCompletion(fn func()) {
	um.onDone = append(um.onDone, fn)
}

// Submit accepts tasks for execution: all of them, or none and an error.
// names is the index the caller checked and indexed the tasks into
// (skeleton.Index.Add) after the manager's units so far, and the manager keeps
// it as its own: the execution manager checks a workload before it derives a
// strategy for it, so no job indexes its tasks twice. Each unit points at its
// element of tasks, which Submit never writes, so the caller must not modify
// tasks while the units run. The units of one call are carved from one slab
// and their trace ids from one string, so while any of them is reachable all
// are.
func (um *UnitManager) Submit(tasks []skeleton.Task, names skeleton.Index) error {
	if len(names) != len(um.units)+len(tasks) {
		return fmt.Errorf("pilot: Submit of %d tasks to a manager with %d units given an index of %d", len(tasks), len(um.units), len(names))
	}
	um.names = names
	slab := make([]Unit, len(tasks))
	idBytes := 0
	for i := range tasks {
		idBytes += len("unit.") + len(tasks[i].ID)
	}
	um.units = slices.Grow(um.units, len(tasks))
	um.ready = slices.Grow(um.ready, len(tasks))
	var ids strings.Builder
	ids.Grow(idBytes)
	for i := range tasks {
		ids.WriteString("unit.")
		ids.WriteString(tasks[i].ID)
	}
	id := ids.String()
	for i := range tasks {
		t, u := &tasks[i], &slab[i]
		u.task, u.um, u.index = t, um, int32(len(um.units))
		n := len("unit.") + len(t.ID)
		u.id, id = id[:n], id[n:]
		// A unit waits for its explicit dependencies, then for the producers
		// of its inputs, each once.
		for _, dep := range t.Deps {
			um.dependOn(u, dep)
		}
		for k := range t.Inputs {
			if producer := t.Inputs[k].Producer; producer != "" {
				um.dependOn(u, producer)
			}
		}
		um.units = append(um.units, u)
		u.transition(UnitNew, "")
		u.transition(UnitScheduling, "")
		if u.openDeps == 0 {
			um.ready = append(um.ready, u) // the highest index so far
		}
	}
	um.schedulePlace()
	return nil
}

// unit returns the submitted unit whose task has the given ID.
func (um *UnitManager) unit(id string) *Unit { return um.units[um.names[id]] }

// dependOn makes u wait for the unit whose task has the given ID, unless that
// unit is done or u already waits for it. A unit's dependencies are wired one
// after another, so if u is on the producer's list at all it is its head.
func (um *UnitManager) dependOn(u *Unit, id string) {
	p := um.unit(id)
	if p.state == UnitDone || p.dependents != 0 && um.edges[p.dependents-1].unit == u.index {
		return
	}
	u.openDeps++
	um.edges = append(um.edges, edge{unit: u.index, next: p.dependents})
	p.dependents = edgeRef(len(um.edges))
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
	u.abandonStaging()
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
	assignments := um.scheduler.Place(um.assign[:0], ready, um.pilots, um.committed)
	um.assign = assignments
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
	um.committed[p] += u.task.Cores

	bytes := um.stageInBytes(u, p)
	if d := &um.inDetail; d.pilot != p || d.bytes != bytes {
		var buf [96]byte
		text := append(append(buf[:0], p.id...), ", "...)
		text = append(strconv.AppendInt(text, bytes, 10), " bytes"...)
		d.pilot, d.bytes, d.text = p, bytes, string(text)
	}
	u.transition(UnitStagingInput, um.inDetail.text)
	if bytes <= 0 {
		um.staged(u)
		return
	}
	um.sys.links(p.desc.Resource).StartInto(&u.xfer, bytes, (*staging)(u))
}

// stageInBytes computes the payload that must cross the WAN for a unit bound
// to pilot p: external inputs always move; dependency inputs move unless the
// producer ran on the same pilot (then they are already on the resource's
// filesystem).
func (um *UnitManager) stageInBytes(u *Unit, p *Pilot) int64 {
	var n int64
	for _, f := range u.task.Inputs {
		if f.Producer == "" || um.unit(f.Producer).pilot != p {
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
	if u.pilot.State() == PilotActive {
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
			u.abandonStaging()
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
		// makeReady inserts by submission index, so the order of the list
		// does not matter.
		for e := u.dependents; e != 0; e = um.edges[e-1].next {
			d := um.units[um.edges[e-1].unit]
			d.openDeps--
			if d.openDeps == 0 && d.state == UnitScheduling {
				um.makeReady(d)
			}
		}
		u.dependents = 0
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
			u.abandonStaging()
			u.pilotCommitRelease()
			u.finalize(UnitFailed, "no pilots available")
		}
	}
}
