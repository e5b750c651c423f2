// Package sim provides the discrete-event simulation engine that underpins
// the simulated execution substrate of this repository.
//
// All middleware components (pilot managers, agents, bundle agents, data
// stagers) schedule their work on one engine, Sim, in deterministic virtual
// time. Whoever owns a Sim decides how its clock relates to the world: a
// driver that fires events as fast as it can (Step, Run — the experiment
// harness, the benchmarks, a waiting job's pump) or one that holds each event
// back until the wall clock reaches it (NextAt and AdvanceTo — the
// environment's WithRealTime pacer). The components cannot tell the two apart.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, expressed as an offset from the start of
// the simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Seconds reports t as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Duration converts t to a time.Duration offset from the epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

func (t Time) String() string {
	return fmt.Sprintf("T+%.3fs", t.Seconds())
}

// Forever is a Time beyond any reachable simulation horizon.
const Forever = Time(math.MaxInt64)

// Handler is what an event runs when it fires. The struct that owns the event
// implements it, so the owner rides in the event without a closure.
type Handler interface {
	Fire()
}

// Func adapts a function to Handler. A func value is pointer-shaped, so the
// conversion allocates nothing.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Event is a callback a Sim fires at a point in time. It can be canceled
// before it fires.
//
// Schedule and At allocate one per call, which is fine for a handful of events
// per job. A component that arms an event per unit of work embeds the Event in
// the struct its callback touches, gives it a Handler once with Init, and
// queues it with Sim.Arm: that allocates nothing. An event is re-armed only
// once it has fired or been canceled, and its holder must not be copied while
// it is pending — the queue keeps a pointer to it.
type Event struct {
	when Time
	seq  uint64
	h    Handler
	// slot is where Sim queued the event: i+1 at heap[i], -(i+1) at lane[i],
	// 0 when it is not queued — never armed, fired or canceled (so the zero
	// Event is idle).
	slot int32
}

// Init fixes what the event runs when it fires. Its owner calls it before the
// first Arm, and may call it again whenever the event is not pending.
func (e *Event) Init(h Handler) { e.h = h }

// Sim is the deterministic discrete-event engine. It is not safe for
// concurrent use: one goroutine at a time owns a Sim, and all scheduled
// callbacks run on that goroutine inside Run/Step/AdvanceTo. Callbacks
// therefore never run concurrently with each other, so components built on a
// Sim need no internal locking for state that is only touched from callbacks.
//
// Events fire in (when, seq) order, seq being the order they were armed in;
// the queue's two parts together keep that one order. Events armed for a later
// time sit in heap, a binary min-heap on (when, seq). Events armed for the
// current instant — zero-delay continuations, a large share of all events — go
// to lane, a FIFO: such an event has the highest seq so far, so it fires after
// the heap's events due now and before any later one. The clock moves only
// when a heap event fires with the lane empty, so every lane event is due now.
type Sim struct {
	now      Time
	heap     []*Event
	lane     []*Event // lane[laneHead:] is live; a canceled slot holds nil
	laneHead int
	pending  int
	seq      uint64
	fired    uint64
	running  bool
}

// NewSim returns an empty simulation positioned at the epoch.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Pending reports the number of queued (not yet fired, not canceled) events.
func (s *Sim) Pending() int { return s.pending }

// Fired reports the number of callbacks executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Schedule arranges for fn to run at delay from Now. A negative delay is
// treated as zero. The returned Event may be passed to Cancel.
func (s *Sim) Schedule(delay time.Duration, fn func()) *Event {
	return s.At(s.now.Add(delay), fn) // armAt clamps a negative delay to now
}

// At arranges for fn to run at the absolute time t. If t is in the past it
// runs as soon as possible.
func (s *Sim) At(t Time, fn func()) *Event {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	ev := &Event{h: Func(fn)}
	s.armAt(ev, t)
	return ev
}

// Arm queues ev, which the caller owns and has given a Handler with Init, to
// fire at delay from Now, ordered exactly as Schedule would order it. It
// panics if ev is still pending.
func (s *Sim) Arm(ev *Event, delay time.Duration) { s.armAt(ev, s.now.Add(delay)) }

// armAt is the one way into the queue.
func (s *Sim) armAt(ev *Event, t Time) {
	if ev.h == nil {
		panic("sim: event armed before Init gave it a handler")
	}
	if ev.slot != 0 {
		panic("sim: event armed while still pending")
	}
	if t < s.now {
		t = s.now
	}
	ev.when, ev.seq = t, s.seq
	s.seq++
	s.pending++
	if t == s.now {
		if s.laneHead == len(s.lane) { // drained: start over in the same array
			s.lane, s.laneHead = s.lane[:0], 0
		}
		s.lane = append(s.lane, ev)
		ev.slot = -int32(len(s.lane))
		return
	}
	s.heap = append(s.heap, ev)
	s.up(len(s.heap) - 1)
}

// Cancel prevents a pending event from firing. Canceling a fired or
// already-canceled event is a no-op. Cancel reports whether the event was
// pending.
func (s *Sim) Cancel(ev *Event) bool {
	if ev == nil {
		return false
	}
	switch {
	case ev.slot > 0:
		s.remove(int(ev.slot) - 1)
	case ev.slot < 0:
		s.lane[-int(ev.slot)-1] = nil
	default:
		return false // not queued: fired, canceled or never armed
	}
	ev.slot = 0
	s.pending--
	return true
}

// head returns the event Step would fire, nil if there is none.
func (s *Sim) head() *Event {
	for s.laneHead < len(s.lane) && s.lane[s.laneHead] == nil {
		s.laneHead++ // canceled
	}
	laneEmpty := s.laneHead == len(s.lane)
	if len(s.heap) > 0 && (laneEmpty || s.heap[0].when <= s.now) {
		return s.heap[0]
	}
	if laneEmpty {
		return nil
	}
	return s.lane[s.laneHead]
}

// Step fires the single earliest pending event. It reports false when the
// queue is empty.
func (s *Sim) Step() bool {
	ev := s.head()
	if ev == nil {
		return false
	}
	if ev.slot > 0 {
		s.remove(0)
	} else {
		s.lane[s.laneHead] = nil
		s.laneHead++
	}
	ev.slot = 0
	s.pending--
	if ev.when > s.now {
		s.now = ev.when
	}
	s.fired++
	ev.h.Fire()
	return true
}

// Runnable reports whether a Step would fire an event, firing nothing — the
// non-blocking query half of the StepN pump seam that cross-shard work
// stealing builds on: a waiter tells a drained-but-blocked engine (nothing
// runnable although the workload is incomplete) from a merely busy one
// without perturbing the event queue it inspects.
func (s *Sim) Runnable() bool { return s.pending > 0 }

// StepN fires up to n pending events and reports how many fired; a return
// below n means the queue drained. Time advances when a driver fires events,
// a bounded batch per call, so a pump that drives the Sim under an external
// lock (the sharded environment's per-shard pump) yields the lock between
// batches.
func (s *Sim) StepN(n int) int {
	fired := 0
	for fired < n && s.Step() {
		fired++
	}
	return fired
}

// Run fires events until the queue drains. It returns the final virtual time.
func (s *Sim) Run() Time {
	s.runGuard()
	defer func() { s.running = false }()
	for s.Step() {
	}
	return s.now
}

// RunUntil fires every event due at or before limit and returns the clock,
// which stays at the last event fired: it does not jump to limit.
func (s *Sim) RunUntil(limit Time) Time {
	s.fireDue(limit, math.MaxInt)
	return s.now
}

// NextAt reports when the earliest pending event is due; ok is false when
// the queue is empty.
func (s *Sim) NextAt() (t Time, ok bool) {
	if ev := s.head(); ev != nil {
		return ev.when, true
	}
	return 0, false
}

// AdvanceTo is RunUntil for a driver that owns the clock, in bounded steps: it
// fires at most max events due at or before limit and reports how many fired.
// Once none is left due (fired < max) the clock moves up to limit, so what the
// driver arms next is timed from limit, not from the last event.
func (s *Sim) AdvanceTo(limit Time, max int) (fired int) {
	if fired = s.fireDue(limit, max); fired < max && limit > s.now {
		s.now = limit
	}
	return fired
}

// fireDue fires up to max events due at or before limit, earliest first.
func (s *Sim) fireDue(limit Time, max int) (fired int) {
	s.runGuard()
	defer func() { s.running = false }()
	for ; fired < max; fired++ {
		if next := s.head(); next == nil || next.when > limit {
			break
		}
		s.Step()
	}
	return fired
}

func (s *Sim) runGuard() {
	if s.running {
		panic("sim: Run called reentrantly from a callback")
	}
	s.running = true
}

// before is the firing order: earlier time first, arming order on a tie.
func before(a, b *Event) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// up moves heap[i] toward the root until its parent fires before it.
func (s *Sim) up(i int) {
	ev := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !before(ev, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		s.heap[i].slot = int32(i + 1)
		i = parent
	}
	s.heap[i] = ev
	ev.slot = int32(i + 1)
}

// down moves heap[i] toward the leaves until it fires before both children.
func (s *Sim) down(i int) {
	ev, n := s.heap[i], len(s.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && before(s.heap[r], s.heap[child]) {
			child = r
		}
		if !before(s.heap[child], ev) {
			break
		}
		s.heap[i] = s.heap[child]
		s.heap[i].slot = int32(i + 1)
		i = child
	}
	s.heap[i] = ev
	ev.slot = int32(i + 1)
}

// remove takes heap[i] out of the heap; the caller clears its slot.
func (s *Sim) remove(i int) {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap[n] = nil
	s.heap = s.heap[:n]
	if i == n {
		return
	}
	s.heap[i] = last
	s.down(i)
	if int(last.slot) == i+1 {
		s.up(i)
	}
}
