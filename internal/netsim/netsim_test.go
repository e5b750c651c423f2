package netsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"aimes/internal/sim"
)

const mb = 1 << 20

func TestSingleTransferTime(t *testing.T) {
	eng := sim.NewSim()
	l := NewLink(eng, "wan", 10*mb, 100*time.Millisecond)
	var done sim.Time
	l.Start(10*mb, func() { done = eng.Now() })
	eng.Run()
	want := sim.Time(1100 * time.Millisecond) // 0.1s latency + 1s payload
	if done != want {
		t.Fatalf("done at %v, want %v", done, want)
	}
	if l.Completed() != 1 || l.TotalBytes() != 10*mb {
		t.Fatalf("completed=%d bytes=%g", l.Completed(), l.TotalBytes())
	}
}

func TestFairSharing(t *testing.T) {
	eng := sim.NewSim()
	l := NewLink(eng, "wan", 10*mb, 0)
	var t1, t2 sim.Time
	l.Start(10*mb, func() { t1 = eng.Now() })
	l.Start(10*mb, func() { t2 = eng.Now() })
	eng.Run()
	// Two equal transfers sharing the link: both finish at 2s.
	if math.Abs(t1.Seconds()-2) > 1e-9 || math.Abs(t2.Seconds()-2) > 1e-9 {
		t.Fatalf("t1=%v t2=%v, want both 2s", t1, t2)
	}
}

func TestShareRecomputedOnCompletion(t *testing.T) {
	eng := sim.NewSim()
	l := NewLink(eng, "wan", 10*mb, 0)
	var small, large sim.Time
	l.Start(5*mb, func() { small = eng.Now() })
	l.Start(15*mb, func() { large = eng.Now() })
	eng.Run()
	// Shared 5 MB/s each: small done at 1s. Then large has 10 MB left at
	// full 10 MB/s: done at 2s.
	if math.Abs(small.Seconds()-1) > 1e-9 {
		t.Fatalf("small done at %v, want 1s", small)
	}
	if math.Abs(large.Seconds()-2) > 1e-9 {
		t.Fatalf("large done at %v, want 2s", large)
	}
}

func TestStaggeredArrival(t *testing.T) {
	eng := sim.NewSim()
	l := NewLink(eng, "wan", 10*mb, 0)
	var first sim.Time
	l.Start(10*mb, func() { first = eng.Now() })
	eng.Schedule(500*time.Millisecond, func() {
		l.Start(10*mb, nil)
	})
	eng.Run()
	// First: 5 MB alone (0.5s), then 5 MB at half rate (1s) => 1.5s.
	if math.Abs(first.Seconds()-1.5) > 1e-9 {
		t.Fatalf("first done at %v, want 1.5s", first)
	}
}

func TestZeroSizeTransferPaysLatency(t *testing.T) {
	eng := sim.NewSim()
	l := NewLink(eng, "wan", mb, 250*time.Millisecond)
	var done sim.Time
	l.Start(0, func() { done = eng.Now() })
	eng.Run()
	if done != sim.Time(250*time.Millisecond) {
		t.Fatalf("done at %v, want 250ms", done)
	}
}

func TestCancelPendingTransfer(t *testing.T) {
	eng := sim.NewSim()
	l := NewLink(eng, "wan", mb, time.Second)
	fired := false
	tr := l.Start(mb, func() { fired = true })
	if !l.Cancel(tr) {
		t.Fatal("cancel failed")
	}
	eng.Run()
	if fired {
		t.Fatal("canceled transfer completed")
	}
	if l.Cancel(tr) {
		t.Fatal("double cancel succeeded")
	}
}

func TestCancelActiveTransferSpeedsOthers(t *testing.T) {
	eng := sim.NewSim()
	l := NewLink(eng, "wan", 10*mb, 0)
	var done sim.Time
	l.Start(10*mb, func() { done = eng.Now() })
	victim := l.Start(100*mb, nil)
	eng.Schedule(time.Second, func() { l.Cancel(victim) })
	eng.Run()
	// 1s shared (5 MB moved), then 5 MB at full rate (0.5s) => 1.5s.
	if math.Abs(done.Seconds()-1.5) > 1e-9 {
		t.Fatalf("done at %v, want 1.5s", done)
	}
	if l.Active() != 0 {
		t.Fatalf("active=%d after drain", l.Active())
	}
}

func TestEstimate(t *testing.T) {
	eng := sim.NewSim()
	l := NewLink(eng, "wan", 10*mb, 100*time.Millisecond)
	if got := l.Estimate(10 * mb); got != 1100*time.Millisecond {
		t.Fatalf("Estimate = %v, want 1.1s", got)
	}
}

func TestLinkValidation(t *testing.T) {
	eng := sim.NewSim()
	for _, fn := range []func(){
		func() { NewLink(eng, "x", 0, 0) },
		func() { NewLink(eng, "x", mb, -time.Second) },
		func() { NewLink(eng, "x", mb, 0).Start(-1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid construction did not panic")
				}
			}()
			fn()
		}()
	}
}

// Property: N equal concurrent transfers of size S on capacity C complete at
// N*S/C (work conservation), and total bytes accounting matches.
func TestWorkConservationProperty(t *testing.T) {
	prop := func(nRaw, sRaw uint8) bool {
		n := int(nRaw%8) + 1
		size := (int64(sRaw%50) + 1) * mb
		eng := sim.NewSim()
		l := NewLink(eng, "wan", 10*mb, 0)
		var last sim.Time
		for i := 0; i < n; i++ {
			l.Start(size, func() { last = eng.Now() })
		}
		eng.Run()
		want := float64(n) * float64(size) / (10 * mb)
		if math.Abs(last.Seconds()-want) > 1e-6 {
			return false
		}
		return l.TotalBytes() == float64(n)*float64(size) && l.Completed() == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a transfer's end time is never earlier than the idle-link
// estimate, regardless of competing load.
func TestEstimateIsLowerBoundProperty(t *testing.T) {
	prop := func(seed int64, compRaw uint8) bool {
		eng := sim.NewSim()
		l := NewLink(eng, "wan", 5*mb, 50*time.Millisecond)
		size := int64(7 * mb)
		est := l.Estimate(size)
		var done sim.Time
		l.Start(size, func() { done = eng.Now() })
		for i := 0; i < int(compRaw%10); i++ {
			l.Start(mb*int64(1+i%3), nil)
		}
		eng.Run()
		return done.Duration() >= est
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrencyBoundQueuesFIFO(t *testing.T) {
	eng := sim.NewSim()
	l := NewLink(eng, "wan", 10*mb, 0)
	l.SetMaxConcurrent(2)
	var order []int
	for i := 0; i < 4; i++ {
		idx := i
		l.Start(10*mb, func() { order = append(order, idx) })
	}
	eng.Schedule(time.Millisecond, func() {
		if l.Active() != 2 || l.Pending() != 2 {
			t.Errorf("active=%d pending=%d, want 2/2", l.Active(), l.Pending())
		}
	})
	eng.Run()
	if len(order) != 4 {
		t.Fatalf("completed %d, want 4", len(order))
	}
	// First two admitted together finish first, then the queued pair.
	if order[2] != 2 && order[2] != 3 {
		t.Fatalf("order = %v, want FIFO admission", order)
	}
}

func TestConcurrencyBoundPreservesAggregateTime(t *testing.T) {
	// Total time for N equal files is N*S/C regardless of the bound.
	for _, bound := range []int{0, 1, 4} {
		eng := sim.NewSim()
		l := NewLink(eng, "wan", 10*mb, 0)
		l.SetMaxConcurrent(bound)
		var last sim.Time
		for i := 0; i < 8; i++ {
			l.Start(5*mb, func() { last = eng.Now() })
		}
		eng.Run()
		if math.Abs(last.Seconds()-4) > 1e-9 {
			t.Fatalf("bound %d: finished at %v, want 4s", bound, last)
		}
	}
}

func TestCancelPendingQueuedTransfer(t *testing.T) {
	eng := sim.NewSim()
	l := NewLink(eng, "wan", mb, 0)
	l.SetMaxConcurrent(1)
	l.Start(mb, nil)
	fired := false
	victim := l.Start(mb, func() { fired = true })
	eng.Schedule(time.Millisecond, func() {
		if !l.Cancel(victim) {
			t.Error("cancel of queued transfer failed")
		}
	})
	eng.Run()
	if fired {
		t.Fatal("canceled queued transfer completed")
	}
	if l.Completed() != 1 {
		t.Fatalf("completed %d, want 1", l.Completed())
	}
}
