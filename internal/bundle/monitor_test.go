package bundle

import (
	"testing"
	"time"

	"aimes/internal/batch"
	"aimes/internal/sim"
	"aimes/internal/site"
)

// direct is the Monitor's sync for a test that owns the engine.
func direct(fn func()) { fn() }

func TestMonitorThresholds(t *testing.T) {
	eng := sim.NewSim()
	tb, err := site.NewTestbed(eng, site.DefaultTestbed(), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	b := New(tb.Sites())
	m := NewMonitor(eng, b, time.Minute, direct)
	var events []Event
	err = m.Subscribe(Condition{
		Resource: "stampede", Metric: MetricQueuedJobs, Op: OpAbove, Threshold: 0.5,
	}, func(e Event) { events = append(events, e) })
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the machine so a queued job appears, after 10 minutes.
	eng.Schedule(10*time.Minute, func() {
		s := tb.Site("stampede")
		for i := 0; i < 2; i++ {
			if err := s.Queue().Submit(&batch.Job{
				ID: "big", Nodes: 6400, Runtime: 5 * time.Hour, Walltime: 6 * time.Hour,
			}); err != nil {
				t.Error(err)
			}
		}
	})
	eng.RunUntil(sim.Time(40 * time.Minute))
	m.Stop()
	eng.Run()
	if len(events) != 1 {
		t.Fatalf("events = %d, want exactly 1 (edge-triggered)", len(events))
	}
	if events[0].Condition.Resource != "stampede" || events[0].Value < 1 {
		t.Fatalf("event = %+v", events[0])
	}
}

func TestMonitorSustain(t *testing.T) {
	eng := sim.NewSim()
	tb, err := site.NewTestbed(eng, site.DefaultTestbed(), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	b := New(tb.Sites())
	m := NewMonitor(eng, b, time.Minute, direct)
	fired := sim.Time(0)
	err = m.Subscribe(Condition{
		Resource: "gordon", Metric: MetricFreeNodes, Op: OpAbove, Threshold: 10,
		Sustain: 30 * time.Minute,
	}, func(e Event) {
		if fired == 0 {
			fired = e.Time
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(2 * time.Hour))
	m.Stop()
	if fired < sim.Time(30*time.Minute) {
		t.Fatalf("fired at %v, before sustain window elapsed", fired)
	}
	if fired > sim.Time(32*time.Minute) {
		t.Fatalf("fired at %v, long after sustain window", fired)
	}
}

func TestMonitorSubscribeValidation(t *testing.T) {
	eng := sim.NewSim()
	tb, _ := site.NewTestbed(eng, site.DefaultTestbed(), sim.NewRNG(1))
	b := New(tb.Sites())
	m := NewMonitor(eng, b, time.Minute, direct)
	if err := m.Subscribe(Condition{Resource: "nope", Metric: MetricFreeNodes, Op: OpAbove}, func(Event) {}); err == nil {
		t.Fatal("unknown resource accepted")
	}
	if err := m.Subscribe(Condition{Resource: "gordon", Metric: "bogus", Op: OpAbove}, func(Event) {}); err == nil {
		t.Fatal("unknown metric accepted")
	}
	if err := m.Subscribe(Condition{Resource: "gordon", Metric: MetricFreeNodes, Op: "~"}, func(Event) {}); err == nil {
		t.Fatal("unknown operator accepted")
	}
	m.Stop()
}
