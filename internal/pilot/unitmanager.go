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
	"aimes/internal/trace"
)

// Unit is one compute unit under management. A job's units are one slab, so
// every byte here is paid per task.
type Unit struct {
	task  *skeleton.Task // the element of the slice Submit was given
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

	// idOff is where the unit's trace entity, "unit.<task ID>", starts in
	// its manager's ids.
	idOff uint32

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

// name is the unit's trace entity, cut from its manager's ids.
func (u *Unit) name() trace.Entity {
	return trace.Carved(u.um.ids, int(u.idOff), len("unit.")+len(u.task.ID))
}

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
	um.sys.rec.Emit(now, u.name(), state.String(), detail)
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
		u.pilot.committed -= u.task.Cores
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

// Scheduler places eligible units onto pilots. The paper's execution
// strategies differ exactly here: early binding uses Direct (one pilot, bound
// before activation); late binding uses Backfill (units flow to whichever
// active pilot has free capacity).
type Scheduler interface {
	// Place binds units of ready to um's pilots as it decides
	// (UnitManager.bind), in the order of ready, and returns how many it
	// bound; it changes nothing else. Units left unbound remain eligible for
	// the next call.
	Place(um *UnitManager, ready []*Unit) int
}

// Direct binds every unit to the first non-final pilot immediately — the
// paper's early-binding scheduler (experiments 1 and 2 use it with a single
// pilot).
type Direct struct{}

// Place implements Scheduler.
func (Direct) Place(um *UnitManager, ready []*Unit) int {
	for _, p := range um.pilots {
		if !p.State().Final() {
			for _, u := range ready {
				um.bind(u, p)
			}
			return len(ready)
		}
	}
	return 0
}

// RoundRobin distributes units evenly across non-final pilots at submission
// time — early binding over multiple pilots (the combination the paper
// discards as dominated, kept here for the ablation benchmarks).
type RoundRobin struct{}

// Place implements Scheduler.
func (RoundRobin) Place(um *UnitManager, ready []*Unit) int {
	var alive []*Pilot
	for _, p := range um.pilots {
		if !p.State().Final() {
			alive = append(alive, p)
		}
	}
	if len(alive) == 0 {
		return 0
	}
	for i, u := range ready {
		um.bind(u, alive[i%len(alive)])
	}
	return len(ready)
}

// Backfill is the paper's late-binding scheduler: units stay with the unit
// manager until a pilot is active with uncommitted cores, then flow to it.
// The first pilot to clear its queue starts executing the workload; others
// join as they activate.
type Backfill struct{}

// Place implements Scheduler.
func (Backfill) Place(um *UnitManager, ready []*Unit) int {
	type slot struct {
		pilot *Pilot
		free  int
	}
	var buf [8]slot
	slots := buf[:0]
	total := 0 // free cores over all active pilots
	// Binding commits cores, so the free cores are read before any is bound.
	for _, p := range um.pilots {
		if p.State() == PilotActive {
			free := p.desc.Cores - p.committed
			slots = append(slots, slot{p, free})
			if free > 0 {
				total += free
			}
		}
	}
	bound := 0
	for _, u := range ready {
		if total <= 0 {
			// Every unit needs at least one core: nothing further fits.
			break
		}
		for i := range slots {
			if slots[i].free >= u.task.Cores {
				slots[i].free -= u.task.Cores
				total -= u.task.Cores
				um.bind(u, slots[i].pilot)
				bound++
				break
			}
		}
	}
	return bound
}

// UnitManager accepts units, schedules them over pilots, manages data
// staging and dependencies, and reschedules units that lose their pilot —
// RADICAL-Pilot's UnitManager.
type UnitManager struct {
	sys       *System
	scheduler Scheduler
	pilots    []*Pilot
	first     [4]*Pilot // pilots' first array
	// inDetails[i] is the detail of pilots[i]'s last STAGING_INPUT record.
	// The units of a bag move the same payload, so nearly every unit bound to
	// a pilot reuses its detail, however the pilots' binds interleave.
	inDetails []stageDetail
	inFirst   [4]stageDetail // inDetails' first array
	units     []*Unit
	names     *skeleton.Index // each unit's position in units, by task ID: the caller's
	// ids is every unit's trace entity, in submission order: the one string
	// a job's unit records are coded against.
	ids string

	// ready holds, in submission order, the units in UnitScheduling with no
	// open dependency — what the scheduler is offered. It is maintained at
	// the transitions that change it, never rebuilt from units. Units
	// finalized while waiting stay in it until the next place; readyStale
	// says there are some (it sits beside placeQueued, where it costs no
	// padding).
	ready []*Unit
	// edges holds every unit's list of dependents, newest first: a unit's
	// dependents field refers to its first edge, and each edge to the next.
	// A bag of tasks has none.
	edges []edge
	// onPlace, when set by a test, sees the ready list of every place.
	onPlace func(ready []*Unit)

	placeEv     sim.Event // the coalesced place, due now while placeQueued
	placeQueued bool
	readyStale  bool
	doneCount   int
	onDone      sim.Handler

	// execCover and stageCover cover the time at least one unit spent in
	// UnitExecuting and in either staging state: the report's Tx and Ts.
	execCover, stageCover cover

	// The detail of the last STAGING_OUTPUT record, which names no pilot.
	outDetail stageDetail
}

// stageDetail is the detail of a staging record that moved bytes bytes.
type stageDetail struct {
	bytes int64
	text  string
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

// Init makes um a unit manager with no units and no pilots on the shared
// system context, placing with the given scheduler, and returns it.
func (um *UnitManager) Init(sys *System, sched Scheduler) *UnitManager {
	*um = UnitManager{sys: sys, scheduler: sched}
	um.pilots, um.inDetails = um.first[:0], um.inFirst[:0]
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
		panic("pilot: " + p.ID() + " added to a second unit manager")
	}
	um.pilots = append(um.pilots, p)
	um.inDetails = append(um.inDetails, stageDetail{})
	p.um = um
	// If the pilot is already active (added late), pick up queued units.
	if p.State() == PilotActive {
		um.pilotChanged(p)
	}
}

// All iterates over the managed units in submission order without copying
// them; the caller must not submit while it does.
func (um *UnitManager) All() iter.Seq[*Unit] { return slices.Values(um.units) }

// OnCompletion sets the handler fired once when every unit is terminal.
func (um *UnitManager) OnCompletion(h sim.Handler) { um.onDone = h }

// Submit accepts tasks for execution: all of them, or none and an error.
// names is the index the caller checked and indexed the tasks into
// (skeleton.Index.Add) after the manager's units so far. The manager reads
// it, never copies it, for as long as its units run, so the caller keeps it
// and only adds later batches to it: the execution manager checks a
// workload before it derives a strategy for it, and its execution holds the
// job's one index. Each unit points at its element of tasks, which Submit
// never writes, so the caller must not modify tasks while the units run. The
// units of one call are carved from one slab, and every unit's trace id so
// far from one string (a later call copies the earlier ids into its own), so
// while any unit of a call is reachable all are.
func (um *UnitManager) Submit(tasks []skeleton.Task, names *skeleton.Index) error {
	if names.Len() != len(um.units)+len(tasks) {
		return fmt.Errorf("pilot: Submit of %d tasks to a manager with %d units given an index of %d", len(tasks), len(um.units), names.Len())
	}
	um.names = names
	slab := make([]Unit, len(tasks))
	idBytes := 0
	for i := range tasks {
		idBytes += len("unit.") + len(tasks[i].ID)
	}
	// Both lists come from one array, sized for every unit so far.
	n := len(um.units) + len(tasks)
	lists := make([]*Unit, 2*n)
	um.units = append(lists[:0:n], um.units...)
	um.ready = append(lists[n:n], um.ready...)
	var ids strings.Builder
	ids.Grow(len(um.ids) + idBytes)
	ids.WriteString(um.ids)
	for i := range tasks {
		ids.WriteString("unit.")
		ids.WriteString(tasks[i].ID)
	}
	off := len(um.ids)
	um.ids = ids.String()
	for i := range tasks {
		t, u := &tasks[i], &slab[i]
		u.task, u.um, u.index, u.idOff = t, um, int32(len(um.units)), uint32(off)
		off += len("unit.") + len(t.ID)
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
func (um *UnitManager) unit(id string) *Unit {
	i, _ := um.names.Lookup(id)
	return um.units[i]
}

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

// Cancel terminates one unit. A running unit's run ends, and its cores go
// back to its agent.
func (um *UnitManager) Cancel(u *Unit) {
	if u.state.Final() {
		return
	}
	switch u.state {
	case UnitScheduling:
		um.readyStale = true
	case UnitExecuting:
		u.pilot.agent.abort(u)
	default:
		u.abandonStaging()
	}
	u.pilotCommitRelease()
	u.finalize(UnitCanceled, "")
}

// schedulePlace coalesces placement triggers within one timestamp. Once
// every unit is final there is nothing to place, and an armed place would
// keep the manager, and the execution around it, reachable from the engine
// until it fired.
func (um *UnitManager) schedulePlace() {
	if um.placeQueued || um.doneCount == len(um.units) {
		return
	}
	um.placeQueued = true
	um.sys.eng.Arm(&um.placeEv, 0)
}

// place runs the scheduler over the ready units, which binds those it places.
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
	bound := um.scheduler.Place(um, ready)
	// The schedulers bind in ready order, so the bound units are normally the
	// head of the list; when the head holds that many bound units, those are
	// all of them.
	n := 0
	for n < bound && n < len(ready) && ready[n].state != UnitScheduling {
		n++
	}
	if n == bound {
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
	p.committed += u.task.Cores

	bytes := um.stageInBytes(u, p)
	d := &um.inDetails[slices.Index(um.pilots, p)]
	if d.text == "" || d.bytes != bytes {
		var buf [96]byte
		text := append(append(buf[:0], p.ID()...), ", "...)
		text = append(strconv.AppendInt(text, bytes, 10), " bytes"...)
		d.bytes, d.text = bytes, string(text)
	}
	u.transition(UnitStagingInput, d.text)
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
			um.returnUnit(u, "pilot "+p.ID()+" "+cause)
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
	if um.doneCount < len(um.units) {
		return
	}
	if um.placeQueued { // armed before the last unit ended: nothing is left to place
		um.sys.eng.Cancel(&um.placeEv)
		um.placeQueued = false
	}
	if h := um.onDone; h != nil {
		um.onDone = nil
		h.Fire()
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
