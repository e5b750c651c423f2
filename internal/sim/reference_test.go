package sim

import (
	"container/heap"
	"time"
)

// The engine as it was before events became caller-owned and the queue
// gained its same-instant lane, kept verbatim (types renamed) as the
// reference the differential test in differential_test.go drives Sim
// against: one container/heap of (when, seq), one allocation per event.

// refEvent is a scheduled callback. It can be canceled before it fires.
type refEvent struct {
	when     Time
	seq      uint64
	index    int // heap index, -1 when not queued
	fn       func()
	canceled bool
}

// When reports the virtual time at which the event fires (or would have
// fired, if canceled).
func (e *refEvent) When() Time { return e.when }

// refQueue is a min-heap ordered by (when, seq).
type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// refSim is the deterministic discrete-event Engine. It is not safe for
// concurrent use: a single goroutine owns a refSim, and all scheduled callbacks
// run on that goroutine inside Run/Step.
type refSim struct {
	now     Time
	queue   refQueue
	seq     uint64
	fired   uint64
	running bool
}

// newRefSim returns an empty reference simulation positioned at the epoch.
func newRefSim() *refSim { return &refSim{} }

// Now returns the current virtual time.
func (s *refSim) Now() Time { return s.now }

// Pending reports the number of queued (not yet fired, not canceled) events.
func (s *refSim) Pending() int {
	n := 0
	for _, ev := range s.queue {
		if !ev.canceled {
			n++
		}
	}
	return n
}

// Fired reports the number of callbacks executed so far.
func (s *refSim) Fired() uint64 { return s.fired }

// Schedule implements Engine.
func (s *refSim) Schedule(delay time.Duration, fn func()) *refEvent {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now.Add(delay), fn)
}

// At implements Engine.
func (s *refSim) At(t Time, fn func()) *refEvent {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	if t < s.now {
		t = s.now
	}
	ev := &refEvent{when: t, seq: s.seq, fn: fn, index: -1}
	s.seq++
	heap.Push(&s.queue, ev)
	return ev
}

// Cancel implements Engine.
func (s *refSim) Cancel(ev *refEvent) bool {
	if ev == nil || ev.canceled {
		return false
	}
	ev.canceled = true
	if ev.index >= 0 {
		heap.Remove(&s.queue, ev.index)
		ev.index = -1
		return true
	}
	return false
}

// Step fires the single earliest pending event. It reports false when the
// queue is empty.
func (s *refSim) Step() bool {
	for len(s.queue) > 0 {
		ev := heap.Pop(&s.queue).(*refEvent)
		if ev.canceled {
			continue
		}
		if ev.when > s.now {
			s.now = ev.when
		}
		s.fired++
		ev.fn()
		return true
	}
	return false
}

// Runnable mirrors Sim.Runnable: it reports whether a Step would fire an
// event, discarding canceled queue heads but firing nothing.
func (s *refSim) Runnable() bool { return s.peek() != nil }

// StepN mirrors Sim.StepN: it fires up to n pending events and reports
// how many fired. A return below n means the queue drained.
func (s *refSim) StepN(n int) int {
	fired := 0
	for fired < n && s.Step() {
		fired++
	}
	return fired
}

// Run fires events until the queue drains. It returns the final virtual time.
func (s *refSim) Run() Time {
	s.runGuard()
	defer func() { s.running = false }()
	for s.Step() {
	}
	return s.now
}

// RunUntil fires events up to and including time limit. Events scheduled
// after limit stay queued; the clock is left at min(limit, last fired event).
func (s *refSim) RunUntil(limit Time) Time {
	s.runGuard()
	defer func() { s.running = false }()
	for len(s.queue) > 0 {
		next := s.peek()
		if next == nil {
			break
		}
		if next.when > limit {
			break
		}
		s.Step()
	}
	if s.now < limit && len(s.queue) == 0 {
		// Clock does not advance past the last event when idle.
		return s.now
	}
	return s.now
}

// NextAt mirrors Sim.NextAt.
func (s *refSim) NextAt() (Time, bool) {
	if next := s.peek(); next != nil {
		return next.when, true
	}
	return 0, false
}

// AdvanceTo mirrors Sim.AdvanceTo: RunUntil in steps of max, and the clock
// reads limit once nothing is left due.
func (s *refSim) AdvanceTo(limit Time, max int) int {
	for fired := 0; ; fired++ {
		if fired == max {
			return fired
		}
		if next := s.peek(); next == nil || next.when > limit {
			if s.now < limit {
				s.now = limit
			}
			return fired
		}
		s.Step()
	}
}

func (s *refSim) peek() *refEvent {
	for len(s.queue) > 0 {
		if s.queue[0].canceled {
			heap.Pop(&s.queue)
			continue
		}
		return s.queue[0]
	}
	return nil
}

func (s *refSim) runGuard() {
	if s.running {
		panic("sim: Run called reentrantly from a callback")
	}
	s.running = true
}
