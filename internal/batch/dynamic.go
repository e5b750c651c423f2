package batch

import (
	"slices"
	"strings"
)

// SetOffline implements Queue.
func (s *System) SetOffline(killRunning bool) {
	if s.offline {
		return
	}
	s.offline = true
	if !killRunning {
		return
	}
	victims := append([]*Job(nil), s.running...)
	for _, j := range victims {
		if j.State != JobRunning {
			continue // an earlier victim's Ended callback got to it first
		}
		s.eng.Cancel(&j.ev)
		s.release(j)
		s.finish(j, JobFailed)
	}
}

// SetOnline implements Queue.
func (s *System) SetOnline() {
	if !s.offline {
		return
	}
	s.offline = false
	s.dispatch()
}

// Offline implements Queue.
func (s *System) Offline() bool { return s.offline }

// SetOffline implements Queue.
func (q *Stochastic) SetOffline(killRunning bool) {
	if q.offline {
		return
	}
	q.offline = true
	if !killRunning {
		return
	}
	// The victims fail in ID order.
	victims := slices.SortedFunc(slices.Values(q.running), func(a, b *Job) int { return strings.Compare(a.ID, b.ID) })
	for _, j := range victims {
		if j.State != JobRunning {
			continue // an earlier victim's Ended callback got to it first
		}
		q.eng.Cancel(&j.ev)
		q.release(j)
		q.finish(j, JobFailed)
	}
}

// SetOnline implements Queue.
func (q *Stochastic) SetOnline() {
	if !q.offline {
		return
	}
	q.offline = false
	q.drain()
}

// Offline implements Queue.
func (q *Stochastic) Offline() bool { return q.offline }

// SetWaitScale scales queue waits sampled for future submissions by factor —
// a background-load surge (factor > 1) or lull (factor < 1) on a modeled
// queue. Jobs already queued keep their sampled waits. Factor must be
// positive; 1 restores nominal behavior.
func (q *Stochastic) SetWaitScale(factor float64) {
	if factor <= 0 {
		panic("batch: wait scale must be positive")
	}
	q.waitScale = factor
}
