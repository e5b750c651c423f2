package sim

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSimStartsAtEpoch(t *testing.T) {
	s := NewSim()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

func TestSimFiresInOrder(t *testing.T) {
	s := NewSim()
	var got []int
	s.Schedule(3*time.Second, func() { got = append(got, 3) })
	s.Schedule(1*time.Second, func() { got = append(got, 1) })
	s.Schedule(2*time.Second, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if s.Now() != Time(3*time.Second) {
		t.Fatalf("final time %v, want 3s", s.Now())
	}
}

func TestSimTieBreaksBySchedulingOrder(t *testing.T) {
	s := NewSim()
	var got []string
	s.Schedule(time.Second, func() { got = append(got, "a") })
	s.Schedule(time.Second, func() { got = append(got, "b") })
	s.Schedule(time.Second, func() { got = append(got, "c") })
	s.Run()
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("tie order %v, want [a b c]", got)
	}
}

func TestSimNegativeDelayClampsToNow(t *testing.T) {
	s := NewSim()
	fired := Time(-1)
	s.Schedule(5*time.Second, func() {
		s.Schedule(-10*time.Second, func() { fired = s.Now() })
	})
	s.Run()
	if fired != Time(5*time.Second) {
		t.Fatalf("negative delay fired at %v, want 5s", fired)
	}
}

func TestSimAtInPastClampsToNow(t *testing.T) {
	s := NewSim()
	fired := Time(-1)
	s.Schedule(5*time.Second, func() {
		s.At(Time(time.Second), func() { fired = s.Now() })
	})
	s.Run()
	if fired != Time(5*time.Second) {
		t.Fatalf("past At fired at %v, want 5s", fired)
	}
}

func TestSimCancel(t *testing.T) {
	s := NewSim()
	fired := false
	ev := s.Schedule(time.Second, func() { fired = true })
	if !s.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(ev) {
		t.Fatal("second Cancel returned true")
	}
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("event not marked canceled")
	}
}

func TestSimCancelFromCallback(t *testing.T) {
	s := NewSim()
	fired := false
	var ev *Event
	ev = s.Schedule(2*time.Second, func() { fired = true })
	s.Schedule(time.Second, func() { s.Cancel(ev) })
	s.Run()
	if fired {
		t.Fatal("event canceled from callback still fired")
	}
}

func TestSimScheduleFromCallback(t *testing.T) {
	s := NewSim()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			s.Schedule(time.Second, recurse)
		}
	}
	s.Schedule(0, recurse)
	s.Run()
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
	if s.Now() != Time(4*time.Second) {
		t.Fatalf("final time %v, want 4s", s.Now())
	}
}

func TestSimRunUntil(t *testing.T) {
	s := NewSim()
	var fired []Time
	for i := 1; i <= 5; i++ {
		d := time.Duration(i) * time.Second
		s.Schedule(d, func() { fired = append(fired, s.Now()) })
	}
	s.RunUntil(Time(3 * time.Second))
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if s.Pending() != 2 {
		t.Fatalf("pending %d, want 2", s.Pending())
	}
	s.Run()
	if len(fired) != 5 {
		t.Fatalf("fired %d events after Run, want 5", len(fired))
	}
}

func TestSimRunReentrantPanics(t *testing.T) {
	s := NewSim()
	s.Schedule(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("reentrant Run did not panic")
			}
		}()
		s.Run()
	})
	s.Run()
}

func TestSimFiredCounter(t *testing.T) {
	s := NewSim()
	for i := 0; i < 10; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	ev := s.Schedule(time.Second, func() {})
	s.Cancel(ev)
	s.Run()
	if s.Fired() != 10 {
		t.Fatalf("Fired() = %d, want 10", s.Fired())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the final clock equals the maximum delay.
func TestSimOrderProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		s := NewSim()
		var fired []Time
		var max time.Duration
		for _, r := range raw {
			d := time.Duration(r) * time.Millisecond
			if d > max {
				max = d
			}
			s.Schedule(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return len(raw) == 0 || s.Now() == Time(max)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling a random subset leaves exactly the complement to fire.
func TestSimCancelProperty(t *testing.T) {
	prop := func(n uint8, seed int64) bool {
		s := NewSim()
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		events := make([]*Event, count)
		firedCount := 0
		for i := 0; i < count; i++ {
			events[i] = s.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond,
				func() { firedCount++ })
		}
		canceled := 0
		for _, ev := range events {
			if rng.Intn(2) == 0 {
				if s.Cancel(ev) {
					canceled++
				}
			}
		}
		s.Run()
		return firedCount == count-canceled
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(10 * time.Second)
	b := a.Add(5 * time.Second)
	if b != Time(15*time.Second) {
		t.Fatalf("Add: got %v", b)
	}
	if b.Sub(a) != 5*time.Second {
		t.Fatalf("Sub: got %v", b.Sub(a))
	}
	if !a.Before(b) || !b.After(a) {
		t.Fatal("Before/After inconsistent")
	}
	if a.Seconds() != 10 {
		t.Fatalf("Seconds: got %v", a.Seconds())
	}
	if a.String() != "T+10.000s" {
		t.Fatalf("String: got %q", a.String())
	}
}

// TestAdvanceTo pins what a wall-clock driver relies on: events due by the
// limit fire in order, at their own times, max at most per call; once none is
// left due the clock reads the limit, so what is armed next is timed from
// there; the clock never runs backwards; NextAt names the time to sleep until.
func TestAdvanceTo(t *testing.T) {
	s := NewSim()
	if _, ok := s.NextAt(); ok {
		t.Fatal("NextAt on an empty queue reports an event")
	}
	var got []Time
	note := func() { got = append(got, s.Now()) }
	for _, d := range []time.Duration{1, 2, 2, 3, 9} {
		s.Schedule(d*time.Second, note)
	}
	gone := s.Schedule(2*time.Second, note)
	s.Cancel(gone)
	if at, ok := s.NextAt(); !ok || at != Time(time.Second) {
		t.Fatalf("NextAt = %v, %v, want 1s", at, ok)
	}

	limit := Time(5 * time.Second)
	if n := s.AdvanceTo(limit, 3); n != 3 || s.Now() != Time(2*time.Second) {
		t.Fatalf("AdvanceTo(5s, 3) fired %d and left the clock at %v, want 3 at 2s", n, s.Now())
	}
	if n := s.AdvanceTo(limit, 3); n != 1 || s.Now() != limit {
		t.Fatalf("AdvanceTo(5s, 3) again fired %d and left the clock at %v, want 1 at 5s", n, s.Now())
	}
	want := []Time{Time(time.Second), Time(2 * time.Second), Time(2 * time.Second), Time(3 * time.Second)}
	if !slices.Equal(got, want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}

	s.Schedule(time.Second, note) // from 5s, not from the event at 3s
	if at, _ := s.NextAt(); at != Time(6*time.Second) {
		t.Fatalf("an event armed after the advance is due at %v, want 6s", at)
	}
	if n := s.AdvanceTo(Time(4*time.Second), 8); n != 0 || s.Now() != limit {
		t.Fatalf("AdvanceTo into the past fired %d and moved the clock to %v", n, s.Now())
	}
	s.Schedule(0, note) // a same-instant event is due at any limit the clock has reached
	if n := s.AdvanceTo(limit, 8); n != 1 || s.Pending() != 2 {
		t.Fatalf("AdvanceTo(now) fired %d of the same-instant events, %d pending", n, s.Pending())
	}
}

func TestRNGDeterministicStreams(t *testing.T) {
	a := NewRNG(42).Stream("queue")
	b := NewRNG(42).Stream("queue")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed, stream) produced different sequences")
		}
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	root := NewRNG(42)
	a := root.Stream("alpha")
	b := root.Stream("beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams alpha/beta collided %d/100 times", same)
	}
}

func TestRNGChildNamespaces(t *testing.T) {
	root := NewRNG(7)
	c1 := root.Child("rep-1").Stream("x")
	c2 := root.Child("rep-2").Stream("x")
	if c1.Int63() == c2.Int63() && c1.Int63() == c2.Int63() {
		t.Fatal("child namespaces are not independent")
	}
	d1 := NewRNG(7).Child("rep-1").Stream("x")
	d2 := NewRNG(7).Child("rep-1").Stream("x")
	for i := 0; i < 10; i++ {
		if d1.Int63() != d2.Int63() {
			t.Fatal("child namespace not deterministic")
		}
	}
}

func TestStepNFiresBatchesAndReportsDrain(t *testing.T) {
	s := NewSim()
	fired := 0
	for i := 0; i < 10; i++ {
		s.Schedule(time.Duration(i)*time.Second, func() { fired++ })
	}
	if n := s.StepN(4); n != 4 || fired != 4 {
		t.Fatalf("StepN(4) = %d with %d fired", n, fired)
	}
	// Draining mid-batch reports fewer than requested.
	if n := s.StepN(100); n != 6 || fired != 10 {
		t.Fatalf("StepN(100) = %d with %d fired, want 6/10", n, fired)
	}
	if n := s.StepN(5); n != 0 {
		t.Fatalf("StepN on empty queue = %d", n)
	}
}

func TestStepNSkipsCanceledEvents(t *testing.T) {
	s := NewSim()
	fired := 0
	var evs []*Event
	for i := 0; i < 6; i++ {
		evs = append(evs, s.Schedule(time.Duration(i)*time.Second, func() { fired++ }))
	}
	s.Cancel(evs[1])
	s.Cancel(evs[4])
	if n := s.StepN(10); n != 4 || fired != 4 {
		t.Fatalf("StepN over canceled events = %d with %d fired", n, fired)
	}
}

func TestSimRunnable(t *testing.T) {
	s := NewSim()
	if s.Runnable() {
		t.Fatal("empty engine reports runnable")
	}
	ev := s.Schedule(time.Second, func() {})
	if !s.Runnable() {
		t.Fatal("engine with a pending event reports quiescent")
	}
	s.Cancel(ev)
	if s.Runnable() {
		t.Fatal("engine with only a canceled event reports runnable")
	}
	// Runnable is a pure query: it fires nothing and keeps the clock still.
	s.Schedule(time.Second, func() {})
	now, fired := s.Now(), s.Fired()
	if !s.Runnable() || s.Now() != now || s.Fired() != fired {
		t.Fatal("Runnable perturbed the engine")
	}
	if !s.Step() || s.Runnable() {
		t.Fatal("drained engine still runnable after firing the last event")
	}
}

// counter is an event's owner in the shape the tree uses: the event is a
// field, the owner its handler.
type counter struct {
	ev    Event
	fired int
}

func (c *counter) Fire() { c.fired++ }

// TestOwnedEventAllocatesNothing pins the point of Arm: once the queue has
// its capacity, arming and firing a caller-owned event allocates nothing, on
// the same-instant lane and on the heap alike.
func TestOwnedEventAllocatesNothing(t *testing.T) {
	for _, delay := range []time.Duration{0, time.Second} {
		s := NewSim()
		c := &counter{}
		c.ev.Init(c)
		s.Schedule(time.Hour, func() {}) // a later event the round trip sifts past
		round := func() {
			s.Arm(&c.ev, delay)
			s.Step()
		}
		round()
		if a := testing.AllocsPerRun(100, round); a != 0 {
			t.Errorf("Arm(%v) + Step allocates %.0f objects, want 0", delay, a)
		}
		if c.fired != 102 || s.Pending() != 1 {
			t.Errorf("delay %v: fired %d times with %d pending, want 102 and 1", delay, c.fired, s.Pending())
		}
	}
}

// TestLaneFiresAfterHeapEventsOfTheSameInstant is the ordering rule in one
// picture: an event armed for now fires after every event already queued for
// this instant and before anything later.
func TestLaneFiresAfterHeapEventsOfTheSameInstant(t *testing.T) {
	s := NewSim()
	var order []string
	mark := func(name string) func() { return func() { order = append(order, name) } }
	s.Schedule(time.Second, func() {
		order = append(order, "a")
		s.Schedule(0, mark("a0")) // now, but armed after b
		s.Schedule(time.Nanosecond, mark("later"))
	})
	s.Schedule(time.Second, mark("b"))
	s.Run()
	if got := strings.Join(order, " "); got != "a b a0 later" {
		t.Fatalf("fired %q, want %q", got, "a b a0 later")
	}
}

// TestPendingCountsLaneAndHeap checks the counter against arm, cancel and
// fire on both parts of the queue.
func TestPendingCountsLaneAndHeap(t *testing.T) {
	s := NewSim()
	lane := s.Schedule(0, func() {})
	s.Schedule(0, func() {})
	heap := s.Schedule(time.Second, func() {})
	if s.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", s.Pending())
	}
	if !s.Cancel(lane) || !s.Cancel(heap) || s.Cancel(lane) || s.Pending() != 1 {
		t.Fatalf("after canceling one of each: Pending = %d, want 1", s.Pending())
	}
	if !s.Step() || s.Pending() != 0 || s.Runnable() || s.Step() {
		t.Fatalf("after firing the last: Pending = %d, Runnable = %v", s.Pending(), s.Runnable())
	}
}
