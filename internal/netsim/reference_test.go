package netsim

import (
	"time"

	"aimes/internal/sim"
)

// refLink is the fair-share link as it was before Link kept a single
// completion event: every active transfer owns a completion event, and every
// start, finish, cancel or bandwidth change cancels and re-schedules all of
// them. It is the reference the differential tests hold Link to — same
// arithmetic, same admission order, one engine event per active transfer.
type refLink struct {
	eng       *sim.Sim
	bandwidth float64
	latency   time.Duration
	maxActive int

	active     []*refTransfer
	pending    []*refTransfer
	lastUpdate sim.Time

	totalBytes     float64
	completedCount int
}

type refTransfer struct {
	size      int64
	remaining float64
	ended     sim.Time
	onDone    func()
	canceled  bool
	latEvent  *sim.Event
	doneEvent *sim.Event
}

func newRefLink(eng *sim.Sim, bandwidth float64, latency time.Duration) *refLink {
	return &refLink{eng: eng, bandwidth: bandwidth, latency: latency, lastUpdate: eng.Now()}
}

func (l *refLink) SetMaxConcurrent(n int) { l.maxActive = n }

func (l *refLink) SetBandwidth(bandwidth float64) {
	if bandwidth == l.bandwidth {
		return
	}
	l.settle()
	l.bandwidth = bandwidth
	l.reschedule()
}

func (l *refLink) Start(size int64, onDone func()) *refTransfer {
	t := &refTransfer{size: size, remaining: float64(size), onDone: onDone}
	t.latEvent = l.eng.Schedule(l.latency, func() {
		t.latEvent = nil
		if l.maxActive > 0 && len(l.active) >= l.maxActive {
			l.pending = append(l.pending, t)
			return
		}
		l.admit(t)
	})
	return t
}

func (l *refLink) admit(t *refTransfer) {
	l.settle()
	l.active = append(l.active, t)
	l.reschedule()
}

func (l *refLink) admitPending() {
	for len(l.pending) > 0 && (l.maxActive == 0 || len(l.active) < l.maxActive) {
		t := l.pending[0]
		l.pending = l.pending[1:]
		l.admit(t)
	}
}

func (l *refLink) Cancel(t *refTransfer) bool {
	if t == nil || t.canceled || t.ended != 0 {
		return false
	}
	t.canceled = true
	if t.latEvent != nil {
		l.eng.Cancel(t.latEvent)
		t.latEvent = nil
		return true
	}
	for i, p := range l.pending {
		if p == t {
			l.pending = append(l.pending[:i], l.pending[i+1:]...)
			return true
		}
	}
	for i, a := range l.active {
		if a == t {
			l.settle()
			l.active = append(l.active[:i], l.active[i+1:]...)
			if t.doneEvent != nil {
				l.eng.Cancel(t.doneEvent)
				t.doneEvent = nil
			}
			l.reschedule()
			l.admitPending()
			return true
		}
	}
	return false
}

func (l *refLink) settle() {
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

func (l *refLink) reschedule() {
	l.lastUpdate = l.eng.Now()
	if len(l.active) == 0 {
		return
	}
	rate := l.bandwidth / float64(len(l.active))
	for _, t := range l.active {
		if t.doneEvent != nil {
			l.eng.Cancel(t.doneEvent)
		}
		eta := time.Duration(t.remaining / rate * float64(time.Second))
		tt := t
		t.doneEvent = l.eng.Schedule(eta, func() {
			tt.doneEvent = nil
			l.finish(tt)
		})
	}
}

func (l *refLink) finish(t *refTransfer) {
	l.settle()
	for i, a := range l.active {
		if a == t {
			l.active = append(l.active[:i], l.active[i+1:]...)
			break
		}
	}
	t.ended = l.eng.Now()
	t.remaining = 0
	l.totalBytes += float64(t.size)
	l.completedCount++
	l.reschedule()
	l.admitPending()
	if t.onDone != nil {
		t.onDone()
	}
}
