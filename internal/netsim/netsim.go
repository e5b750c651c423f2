// Package netsim models wide-area data movement for task staging: each
// simulated resource has a WAN link of fixed capacity, concurrent transfers
// share it max-min fairly (fluid-flow model), and every transfer pays a fixed
// per-file latency. This produces the paper's Ts component: staging time that
// grows roughly linearly with the number of tasks, with concurrency limited
// by link capacity rather than by task count.
package netsim

import (
	"fmt"
	"slices"
	"time"

	"aimes/internal/sim"
)

// Link is a shared network link with a fixed capacity. All active transfers
// receive an equal share of the bandwidth; shares are recomputed whenever a
// transfer starts or finishes (progressive filling with a single bottleneck).
//
// Every such change moves every completion time, so only the earliest
// completion of the latest computation can ever fire. The link therefore
// keeps one pending engine event — that completion — however many transfers
// are active.
type Link struct {
	eng       *sim.Sim
	name      string
	bandwidth float64 // bytes per second
	latency   time.Duration
	maxActive int // 0 = unlimited

	// A link lives as long as its site, so a slot vacated in either queue
	// is cleared (slices.Delete does): a stale pointer in a backing array
	// would pin the transfer's done handler — a unit — and, through it, the
	// whole unit graph of a job that finished long ago. pending[pendHead:]
	// is the FIFO of transfers waiting for a slot; it keeps a small array
	// from one burst to the next (keepPending).
	active     []*Transfer
	pending    []*Transfer
	pendHead   int
	lastUpdate sim.Time

	// next is the active transfer that finishes first at the current fair
	// share (nil while nothing flows), doneEvent its completion.
	next      *Transfer
	doneEvent sim.Event
}

// NewLink creates a link. Bandwidth is in bytes/second; latency is the fixed
// per-transfer setup cost (connection establishment, metadata round trips).
func NewLink(eng *sim.Sim, name string, bandwidth float64, latency time.Duration) *Link {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("netsim: link %q bandwidth %g must be positive", name, bandwidth))
	}
	if latency < 0 {
		panic(fmt.Sprintf("netsim: link %q negative latency %v", name, latency))
	}
	l := &Link{
		eng:        eng,
		name:       name,
		bandwidth:  bandwidth,
		latency:    latency,
		lastUpdate: eng.Now(),
	}
	l.doneEvent.Init(sim.Func(func() { l.finish(l.next) }))
	return l
}

// SetMaxConcurrent bounds the number of simultaneously flowing transfers;
// additional transfers queue FIFO. It models the bounded stream pool real
// staging tools (GridFTP, scp fan-out) run: files beyond the pool wait their
// turn instead of thinning every stream's share. Zero means unlimited.
func (l *Link) SetMaxConcurrent(n int) {
	if n < 0 {
		panic(fmt.Sprintf("netsim: negative concurrency bound %d", n))
	}
	l.maxActive = n
}

// SetBandwidth changes the link capacity mid-run — WAN degradation or
// recovery injected by the scenario engine. In-flight transfers are settled
// at the old rate up to now, then rescheduled at the new fair share.
func (l *Link) SetBandwidth(bandwidth float64) {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("netsim: link %q bandwidth %g must be positive", l.name, bandwidth))
	}
	if bandwidth == l.bandwidth {
		return
	}
	l.settle()
	l.bandwidth = bandwidth
	l.reschedule()
}

// Active reports the number of transfers currently moving bytes.
func (l *Link) Active() int { return len(l.active) }

// Estimate returns the transfer time for size bytes if the link were
// otherwise idle — the "order of magnitude" estimate the paper's bundle
// query interface exposes for file transfers.
func (l *Link) Estimate(size int64) time.Duration {
	return l.latency + time.Duration(float64(size)/l.bandwidth*float64(time.Second))
}

// Transfer is one data movement over a link. Its holder may embed it and
// start it again once it has finished or been canceled (Link.StartInto).
// While no transfer is in flight, the holder may also arm the transfer's
// timer with a handler of its own (Timer).
type Transfer struct {
	link      *Link // from StartInto until the last byte arrives or Cancel; nil otherwise
	remaining float64
	done      sim.Handler // fired when the last byte arrives; may be nil
	latEvent  sim.Event   // the link latency elapsing; its handler is the transfer
}

// Timer returns the event that times the transfer's link latency. A holder
// that never stages while it does something else timed can reuse it: it may
// Init and arm it while no transfer is in flight, and must let it fire or
// cancel it before it starts one, or StartInto panics. StartInto gives the
// event its own handler again.
func (t *Transfer) Timer() *sim.Event { return &t.latEvent }

// Start begins a transfer of size bytes. onDone fires when the last byte
// arrives. Zero-size transfers still pay the link latency.
func (l *Link) Start(size int64, onDone func()) *Transfer {
	var done sim.Handler
	if onDone != nil {
		done = sim.Func(onDone)
	}
	t := new(Transfer)
	l.StartInto(t, size, done)
	return t
}

// StartInto is Start for a caller that starts transfers by the thousand: t is
// a transfer it owns — embedded in the struct done touches — and done a
// handler it already has, where Start allocates a transfer and wraps a
// closure. t may have carried an earlier transfer; StartInto panics if that
// one is still in flight, and t must not be copied while this one is.
func (l *Link) StartInto(t *Transfer, size int64, done sim.Handler) {
	if size < 0 {
		panic(fmt.Sprintf("netsim: negative transfer size %d", size))
	}
	if t.link != nil {
		panic(fmt.Sprintf("netsim: link %q: transfer started while still in flight", l.name))
	}
	t.link, t.remaining, t.done = l, float64(size), done
	t.latEvent.Init((*arrival)(t))
	l.eng.Arm(&t.latEvent, l.latency)
}

// arrival is a Transfer as the handler of its latency event.
type arrival Transfer

func (a *arrival) Fire() {
	t := (*Transfer)(a)
	l := t.link
	if l.maxActive > 0 && len(l.active) >= l.maxActive {
		if l.pendHead > 0 && len(l.pending) == cap(l.pending) { // room at the front: slide down
			n := copy(l.pending, l.pending[l.pendHead:])
			clear(l.pending[n:])
			l.pending, l.pendHead = l.pending[:n], 0
		}
		l.pending = append(l.pending, t)
		return
	}
	l.admit(t)
}

// admit starts moving a transfer's bytes.
func (l *Link) admit(t *Transfer) {
	l.settle()
	l.active = append(l.active, t)
	l.reschedule()
}

// keepPending is the largest pending array a drained link keeps for its next
// burst. A link lives as long as its site: a small job's burst reuses the
// array, and one sized by a large job's burst is dropped once it drains.
const keepPending = 256

// admitPending fills freed slots from the FIFO queue.
func (l *Link) admitPending() {
	for l.pendHead < len(l.pending) && (l.maxActive == 0 || len(l.active) < l.maxActive) {
		t := l.pending[l.pendHead]
		l.pending[l.pendHead] = nil
		if l.pendHead++; l.pendHead == len(l.pending) { // drained: start over
			l.pending, l.pendHead = l.pending[:0], 0
			if cap(l.pending) > keepPending {
				l.pending = nil
			}
		}
		l.admit(t)
	}
}

// Cancel aborts a transfer; its onDone never fires. It reports whether the
// transfer was in flight: waiting out the latency, pending or active.
func (l *Link) Cancel(t *Transfer) bool {
	if t == nil || t.link == nil {
		return false
	}
	t.link = nil
	if l.eng.Cancel(&t.latEvent) {
		return true
	}
	if i := slices.Index(l.pending[l.pendHead:], t); i >= 0 {
		l.pending = slices.Delete(l.pending, l.pendHead+i, l.pendHead+i+1)
		return true
	}
	for i, a := range l.active {
		if a == t {
			l.settle()
			l.active = slices.Delete(l.active, i, i+1)
			l.reschedule()
			l.admitPending()
			return true
		}
	}
	return false
}

// settle advances all active transfers' remaining byte counts to Now at the
// current fair-share rate.
func (l *Link) settle() {
	now := l.eng.Now()
	if now == l.lastUpdate || len(l.active) == 0 {
		l.lastUpdate = now
		return
	}
	rate := l.bandwidth / float64(len(l.active))
	dt := now.Sub(l.lastUpdate).Seconds()
	for _, t := range l.active {
		t.remaining -= rate * dt
		if t.remaining < 0 {
			t.remaining = 0
		}
	}
	l.lastUpdate = now
}

// reschedule replaces the link's completion event with that of the active
// transfer that finishes first at the new fair-share rate — the first in
// admission order on a tie.
func (l *Link) reschedule() {
	l.lastUpdate = l.eng.Now()
	l.eng.Cancel(&l.doneEvent)
	l.next = nil
	if len(l.active) == 0 {
		return
	}
	rate := l.bandwidth / float64(len(l.active))
	var soonest time.Duration
	for _, t := range l.active {
		eta := time.Duration(t.remaining / rate * float64(time.Second))
		if l.next == nil || eta < soonest {
			l.next, soonest = t, eta
		}
	}
	l.eng.Arm(&l.doneEvent, soonest)
}

func (l *Link) finish(t *Transfer) {
	l.settle()
	for i, a := range l.active {
		if a == t {
			l.active = slices.Delete(l.active, i, i+1)
			break
		}
	}
	t.remaining = 0
	t.link = nil
	l.reschedule()
	l.admitPending()
	if t.done != nil {
		t.done.Fire()
	}
}
