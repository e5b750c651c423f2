// Package sim provides the discrete-event simulation engine that underpins
// the simulated execution substrate of this repository.
//
// All middleware components (pilot managers, agents, bundle agents, data
// stagers) are written against the Engine interface so that the same code can
// run either in deterministic virtual time (DES, used by the experiment
// harness and benchmarks) or in real wall-clock time (used by the examples
// that execute tasks locally).
package sim

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
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

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

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

// Event is a callback an Engine fires at a point in time. It can be canceled
// before it fires.
//
// Schedule and At allocate one per call, which is fine for a handful of events
// per job. A component that arms an event per unit of work embeds the Event in
// the struct its callback touches, gives it a Handler once with Init, and
// queues it with Engine.Arm: that allocates nothing. An event is re-armed only
// once it has fired or been canceled, and its holder must not be copied while
// it is pending — the queue keeps a pointer to it.
type Event struct {
	when Time
	seq  uint64
	// slot is where Sim queued the event: i+1 at heap[i], -(i+1) at lane[i],
	// 0 when it is not queued (so the zero Event is idle).
	slot     int
	h        Handler
	canceled bool
}

// Init fixes what the event runs when it fires; its owner calls it once.
func (e *Event) Init(h Handler) { e.h = h }

// When reports the virtual time at which the event fires (or would have
// fired, if canceled).
func (e *Event) When() Time { return e.when }

// Canceled reports whether the event was canceled since it was last armed.
func (e *Event) Canceled() bool { return e.canceled }

// Engine schedules callbacks in (virtual or real) time. Implementations
// guarantee that callbacks never run concurrently with each other, so
// components built on an Engine need no internal locking for state that is
// only touched from callbacks.
type Engine interface {
	// Now returns the current time.
	Now() Time
	// Schedule arranges for fn to run at delay from Now. A negative delay is
	// treated as zero. The returned Event may be passed to Cancel.
	Schedule(delay time.Duration, fn func()) *Event
	// At arranges for fn to run at the absolute time t. If t is in the past
	// it runs as soon as possible.
	At(t Time, fn func()) *Event
	// Arm queues ev, which the caller owns and has given a Handler with
	// Init, to fire at delay from Now, ordered exactly as Schedule would
	// order it. It panics if ev is still pending.
	Arm(ev *Event, delay time.Duration)
	// Cancel prevents a pending event from firing. Canceling a fired or
	// already-canceled event is a no-op. Cancel reports whether the event was
	// pending.
	Cancel(ev *Event) bool
}

// Sim is the deterministic discrete-event Engine. It is not safe for
// concurrent use: a single goroutine owns a Sim, and all scheduled callbacks
// run on that goroutine inside Run/Step.
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

var _ Engine = (*Sim)(nil)

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Pending reports the number of queued (not yet fired, not canceled) events.
func (s *Sim) Pending() int { return s.pending }

// Fired reports the number of callbacks executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Schedule implements Engine.
func (s *Sim) Schedule(delay time.Duration, fn func()) *Event {
	return s.At(s.now.Add(delay), fn) // armAt clamps a negative delay to now
}

// At implements Engine.
func (s *Sim) At(t Time, fn func()) *Event {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	ev := &Event{h: Func(fn)}
	s.armAt(ev, t)
	return ev
}

// Arm implements Engine.
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
	ev.when, ev.seq, ev.canceled = t, s.seq, false
	s.seq++
	s.pending++
	if t == s.now {
		if s.laneHead == len(s.lane) { // drained: start over in the same array
			s.lane, s.laneHead = s.lane[:0], 0
		}
		s.lane = append(s.lane, ev)
		ev.slot = -len(s.lane)
		return
	}
	s.heap = append(s.heap, ev)
	s.up(len(s.heap) - 1)
}

// Cancel implements Engine.
func (s *Sim) Cancel(ev *Event) bool {
	if ev == nil || ev.canceled {
		return false
	}
	ev.canceled = true
	switch {
	case ev.slot > 0:
		s.remove(ev.slot - 1)
	case ev.slot < 0:
		s.lane[-ev.slot-1] = nil
	default:
		return false // already fired
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
// below n means the queue drained. Only a Sim is stepped: its time advances
// when a driver fires events, a bounded batch per call, so a pump that drives
// it under an external lock (the sharded environment's per-shard pump) yields
// the lock between batches; RealTime advances on its own.
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
	s.runGuard()
	defer func() { s.running = false }()
	for next := s.head(); next != nil && next.when <= limit; next = s.head() {
		s.Step()
	}
	return s.now
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
		s.heap[i].slot = i + 1
		i = parent
	}
	s.heap[i] = ev
	ev.slot = i + 1
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
		s.heap[i].slot = i + 1
		i = child
	}
	s.heap[i] = ev
	ev.slot = i + 1
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
	if last.slot == i+1 {
		s.up(i)
	}
}

// RealTime is an Engine that schedules callbacks on wall-clock timers.
// Callbacks are serialized by a dedicated run mutex (never held while the
// engine's own state lock is held), so a callback may freely call Schedule,
// At and Cancel without deadlocking.
//
// Components built on an Engine keep their mutable state lock-free because
// Engine callbacks never run concurrently — but under RealTime their *public*
// entry points (Submit, Cancel, ...) run on arbitrary goroutines, racing with
// timer callbacks. Such entry points must run under Sync (see Locked), which
// serializes them with callback dispatch.
type RealTime struct {
	state  sync.Mutex   // guards seq and timers
	run    sync.Mutex   // serializes user callbacks and Sync'd sections
	owner  atomic.Int64 // goroutine currently holding run, for reentrancy
	start  time.Time
	seq    uint64
	wg     sync.WaitGroup
	timers map[*Event]*time.Timer
}

// NewRealTime returns a real-time engine whose epoch is the current instant.
func NewRealTime() *RealTime {
	return &RealTime{start: time.Now(), timers: make(map[*Event]*time.Timer)}
}

var _ Engine = (*RealTime)(nil)

// Now returns the elapsed wall-clock time since the engine was created.
func (r *RealTime) Now() Time { return Time(time.Since(r.start)) }

// Schedule implements Engine using time.AfterFunc.
func (r *RealTime) Schedule(delay time.Duration, fn func()) *Event {
	if fn == nil {
		panic("sim: Schedule called with nil callback")
	}
	ev := &Event{h: Func(fn)}
	r.Arm(ev, delay)
	return ev
}

// Arm implements Engine using time.AfterFunc.
func (r *RealTime) Arm(ev *Event, delay time.Duration) {
	if ev.h == nil {
		panic("sim: event armed before Init gave it a handler")
	}
	if delay < 0 {
		delay = 0
	}
	r.state.Lock()
	defer r.state.Unlock()
	if _, pending := r.timers[ev]; pending {
		panic("sim: event armed while still pending")
	}
	ev.when, ev.seq, ev.canceled = r.Now().Add(delay), r.seq, false
	r.seq++
	r.wg.Add(1)
	var timer *time.Timer
	timer = time.AfterFunc(delay, func() {
		defer r.wg.Done()
		r.run.Lock()
		r.owner.Store(goid())
		defer func() {
			r.owner.Store(0)
			r.run.Unlock()
		}()
		// The event may have been canceled, and armed again, while this
		// timer waited for the run lock: only the timer on record fires.
		r.state.Lock()
		live := r.timers[ev] == timer
		if live {
			delete(r.timers, ev)
		}
		r.state.Unlock()
		if live {
			ev.h.Fire()
		}
	})
	r.timers[ev] = timer
}

// At implements Engine.
func (r *RealTime) At(t Time, fn func()) *Event {
	return r.Schedule(t.Sub(r.Now()), fn)
}

// Cancel implements Engine.
func (r *RealTime) Cancel(ev *Event) bool {
	if ev == nil {
		return false
	}
	r.state.Lock()
	defer r.state.Unlock()
	if ev.canceled {
		return false
	}
	ev.canceled = true
	timer, ok := r.timers[ev]
	if !ok {
		return false // already fired
	}
	delete(r.timers, ev)
	if timer.Stop() {
		// The AfterFunc will never run; release its Wait slot here.
		r.wg.Done()
	}
	return true
}

// Wait blocks until all pending timers have fired or been canceled. It is
// intended for orderly shutdown in examples and tests.
func (r *RealTime) Wait() { r.wg.Wait() }

// Sync runs fn serialized with timer callbacks: while fn runs, no engine
// callback runs, so fn may safely touch state that callbacks also mutate.
// Sync is reentrant — calling it from inside a callback (or a nested Sync)
// runs fn inline, so components may wrap their public entry points in Sync
// without worrying about being invoked from an engine callback.
func (r *RealTime) Sync(fn func()) {
	id := goid()
	if r.owner.Load() == id {
		fn()
		return
	}
	r.run.Lock()
	r.owner.Store(id)
	defer func() {
		r.owner.Store(0)
		r.run.Unlock()
	}()
	fn()
}

// Syncer is implemented by engines whose callbacks run concurrently with the
// caller's goroutine and that therefore provide a serialization entry point.
type Syncer interface {
	Sync(fn func())
}

// Locked runs fn under the engine's callback serialization when the engine
// provides one (RealTime); on single-goroutine engines (Sim) it runs fn
// directly. Components use it to guard public entry points that mutate state
// shared with their scheduled callbacks.
func Locked(eng Engine, fn func()) {
	if s, ok := eng.(Syncer); ok {
		s.Sync(fn)
		return
	}
	fn()
}

// goid returns the current goroutine's id by parsing the stack header
// ("goroutine 123 [running]: ..."). The runtime exposes no API for this; the
// parse is the standard fallback and only runs on RealTime entry points,
// never on the DES hot path.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := string(buf[:n])
	const prefix = "goroutine "
	if len(s) <= len(prefix) {
		return -1
	}
	s = s[len(prefix):]
	end := 0
	for end < len(s) && s[end] >= '0' && s[end] <= '9' {
		end++
	}
	id, err := strconv.ParseInt(s[:end], 10, 64)
	if err != nil {
		return -1
	}
	return id
}
