package bundle

import (
	"fmt"
	"time"

	"aimes/internal/sim"
)

// Metric names a monitorable quantity.
type Metric string

// Monitorable metrics.
const (
	MetricUtilization   Metric = "utilization"    // time-averaged busy fraction
	MetricInstantUtil   Metric = "instant_util"   // busy fraction right now
	MetricFreeNodes     Metric = "free_nodes"     // idle nodes
	MetricQueuedJobs    Metric = "queued_jobs"    // queue depth
	MetricPredictedWait Metric = "predicted_wait" // median wait forecast (s)
)

// Op compares a sampled metric against a threshold.
type Op string

// Comparison operators for conditions.
const (
	OpAbove Op = ">"
	OpBelow Op = "<"
)

// Condition is a threshold predicate over one resource metric.
type Condition struct {
	Resource  string
	Metric    Metric
	Op        Op
	Threshold float64
	// Sustain requires the predicate to hold for this long before firing
	// ("when the average performance has dropped below a threshold for a
	// certain period" — paper §III-B).
	Sustain time.Duration
}

// Event notifies a subscriber that a condition fired.
type Event struct {
	Time      sim.Time
	Condition Condition
	// Value is the sample that completed the sustained violation.
	Value float64
}

// Subscriber receives condition events. It runs inside an engine callback,
// so it must not call back into its Monitor's Subscribe or Stop.
type Subscriber func(Event)

// Monitor polls bundle resources on a fixed interval and notifies
// subscribers on sustained threshold crossings. Events are edge-triggered:
// after firing, a condition re-arms once the predicate turns false.
type Monitor struct {
	eng *sim.Sim
	// sync runs a function serialized with eng's callbacks. Subscribe and Stop
	// are called from goroutines that do not own the engine, and touch what
	// its tick callback touches.
	sync     func(func())
	bundle   *Bundle
	interval time.Duration
	subs     []*subscription
	stopped  bool
	tick     *sim.Event
}

type subscription struct {
	cond  Condition
	sub   Subscriber
	since sim.Time // when the predicate became true; -1 when false
	fired bool
}

// NewMonitor creates a monitor polling at the given interval. sync is how
// the engine's owner serializes outside calls with the engine's callbacks;
// arming the first tick already goes through it.
func NewMonitor(eng *sim.Sim, b *Bundle, interval time.Duration, sync func(func())) *Monitor {
	if interval <= 0 {
		panic(fmt.Sprintf("bundle: non-positive monitor interval %v", interval))
	}
	m := &Monitor{eng: eng, sync: sync, bundle: b, interval: interval}
	sync(m.schedule)
	return m
}

// Subscribe registers a condition. It returns an error for unknown resources
// or metrics so misconfigured experiments fail fast.
func (m *Monitor) Subscribe(cond Condition, sub Subscriber) error {
	if m.bundle.Resource(cond.Resource) == nil {
		return fmt.Errorf("bundle: monitor: unknown resource %q", cond.Resource)
	}
	switch cond.Metric {
	case MetricUtilization, MetricInstantUtil, MetricFreeNodes, MetricQueuedJobs, MetricPredictedWait:
	default:
		return fmt.Errorf("bundle: monitor: unknown metric %q", cond.Metric)
	}
	if cond.Op != OpAbove && cond.Op != OpBelow {
		return fmt.Errorf("bundle: monitor: unknown operator %q", cond.Op)
	}
	m.sync(func() { m.subs = append(m.subs, &subscription{cond: cond, sub: sub, since: -1}) })
	return nil
}

// Stop halts polling.
func (m *Monitor) Stop() {
	m.sync(func() {
		m.stopped = true
		if m.tick != nil {
			m.eng.Cancel(m.tick)
			m.tick = nil
		}
	})
}

func (m *Monitor) schedule() {
	if m.stopped {
		return
	}
	m.tick = m.eng.Schedule(m.interval, func() {
		m.poll()
		m.schedule()
	})
}

func (m *Monitor) poll() {
	now := m.eng.Now()
	for _, s := range m.subs {
		r := m.bundle.Resource(s.cond.Resource)
		v, ok := m.sample(r, s.cond.Metric)
		if !ok {
			continue
		}
		violating := false
		switch s.cond.Op {
		case OpAbove:
			violating = v > s.cond.Threshold
		case OpBelow:
			violating = v < s.cond.Threshold
		}
		if !violating {
			s.since = -1
			s.fired = false
			continue
		}
		if s.since < 0 {
			s.since = now
		}
		if s.fired || now.Sub(s.since) < s.cond.Sustain {
			continue
		}
		s.fired = true
		s.sub(Event{Time: now, Condition: s.cond, Value: v})
	}
}

func (m *Monitor) sample(r *Resource, metric Metric) (float64, bool) {
	switch metric {
	case MetricUtilization:
		return r.s.Queue().Snapshot().Utilization, true
	case MetricInstantUtil:
		return r.s.Queue().Snapshot().InstantUtilization, true
	case MetricFreeNodes:
		return float64(r.s.Queue().Snapshot().FreeNodes), true
	case MetricQueuedJobs:
		return float64(r.s.Queue().Snapshot().QueuedJobs), true
	case MetricPredictedWait:
		d, ok := r.Predict(0.5, 0.95)
		return d.Seconds(), ok
	}
	return 0, false
}
