package batch

import "sort"

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
			continue // an earlier victim's OnEnd callback got to it first
		}
		if j.endEvent != nil {
			s.eng.Cancel(j.endEvent)
			j.endEvent = nil
		}
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
	// Map iteration order is randomized; sort for deterministic replay.
	victims := make([]*Job, 0, len(q.running))
	for j := range q.running {
		victims = append(victims, j)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].ID < victims[j].ID })
	for _, j := range victims {
		ev, ok := q.running[j]
		if !ok {
			continue // an earlier victim's OnEnd callback got to it first
		}
		q.eng.Cancel(ev)
		delete(q.running, j)
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

// WaitScale returns the current surge factor (1 when nominal).
func (q *Stochastic) WaitScale() float64 {
	if q.waitScale == 0 {
		return 1
	}
	return q.waitScale
}
