package sim

import (
	"math/rand"
	"testing"
	"time"
)

// engine is the surface a script drives, implemented by Sim and by the
// reference engine in reference_test.go.
type engine interface {
	Now() Time
	Step() bool
	StepN(n int) int
	RunUntil(limit Time) Time
	AdvanceTo(limit Time, max int) int
	NextAt() (Time, bool)
	Runnable() bool
	Pending() int
	Fired() uint64
	// schedule and at queue an engine-allocated event and return its Cancel.
	schedule(delay time.Duration, fn func()) (cancel func() bool)
	at(t Time, fn func()) (cancel func() bool)
	// owned makes an event its holder re-arms. The reference has no such
	// thing: there a holder schedules a fresh event each time and cancels the
	// latest, which is what every holder in the tree did before Arm.
	owned(fn func()) (arm func(delay time.Duration), cancel func() bool)
}

type simEngine struct{ *Sim }

func (e simEngine) schedule(delay time.Duration, fn func()) func() bool {
	ev := e.Schedule(delay, fn)
	return func() bool { return e.Cancel(ev) }
}

func (e simEngine) at(t Time, fn func()) func() bool {
	ev := e.At(t, fn)
	return func() bool { return e.Cancel(ev) }
}

func (e simEngine) owned(fn func()) (func(time.Duration), func() bool) {
	ev := new(Event)
	ev.Init(Func(fn))
	return func(delay time.Duration) { e.Arm(ev, delay) }, func() bool { return e.Cancel(ev) }
}

type refEngine struct{ *refSim }

func (e refEngine) schedule(delay time.Duration, fn func()) func() bool {
	ev := e.Schedule(delay, fn)
	return func() bool { return e.Cancel(ev) }
}

func (e refEngine) at(t Time, fn func()) func() bool {
	ev := e.At(t, fn)
	return func() bool { return e.Cancel(ev) }
}

func (e refEngine) owned(fn func()) (func(time.Duration), func() bool) {
	var ev *refEvent
	return func(delay time.Duration) { ev = e.Schedule(delay, fn) }, func() bool { return e.Cancel(ev) }
}

// firing is one callback as the script saw it.
type firing struct {
	id int
	at Time
}

// holder is a caller-owned event and what the script knows of it.
type holder struct {
	arm     func(time.Duration)
	cancel  func() bool
	pending bool
}

// world is one engine with the events a script made on it. Both worlds of a
// run draw from generators with the same seed, in the order their callbacks
// fire — so they make the same calls for as long as they fire alike.
type world struct {
	eng     engine
	rng     *rand.Rand
	log     []firing
	cancels []func() bool // by event id; holders' ids index holders too
	holders []*holder
	budget  int // events the script may still make
}

// Delays come from a small set so that events tie with each other and with
// the instant they are made in.
var delays = []time.Duration{0, 0, 0, time.Millisecond, time.Millisecond, 5 * time.Millisecond, time.Second}

func (w *world) delay() time.Duration { return delays[w.rng.Intn(len(delays))] }

// spawn queues a new engine-allocated event.
func (w *world) spawn() {
	if w.budget == 0 {
		return
	}
	w.budget--
	id := len(w.cancels)
	w.cancels = append(w.cancels, nil)
	fire := func() { w.fired(id) }
	if w.rng.Intn(3) == 0 {
		// Absolute, sometimes in the past.
		w.cancels[id] = w.eng.at(w.eng.Now().Add(w.delay()-time.Millisecond), fire)
	} else {
		w.cancels[id] = w.eng.schedule(w.delay()-time.Duration(w.rng.Intn(2)), fire) // sometimes negative
	}
}

// hold makes a caller-owned event; its id is also its index in holders.
func (w *world) hold() {
	id := len(w.cancels)
	h := &holder{}
	h.arm, h.cancel = w.eng.owned(func() {
		h.pending = false
		w.fired(id)
	})
	w.holders = append(w.holders, h)
	w.cancels = append(w.cancels, func() bool {
		was := h.cancel()
		if was != h.pending {
			panic("script lost track of a held event")
		}
		h.pending = false
		return was
	})
}

// act makes one random call: a new event, a re-arm, or a cancel of any event
// made so far — pending, fired, canceled before, or the one firing now.
func (w *world) act() {
	switch r := w.rng.Intn(10); {
	case r < 5:
		w.spawn()
	case r < 7:
		if h := w.holders[w.rng.Intn(len(w.holders))]; !h.pending && w.budget > 0 {
			w.budget--
			h.pending = true
			h.arm(w.delay())
		}
	default:
		w.cancels[w.rng.Intn(len(w.cancels))]()
	}
}

func (w *world) fired(id int) {
	w.log = append(w.log, firing{id, w.eng.Now()})
	for n := w.rng.Intn(4); n > 0; n-- {
		w.act()
	}
}

func newWorld(eng engine, seed int64) *world {
	w := &world{eng: eng, rng: rand.New(rand.NewSource(seed)), budget: 600}
	for i := 0; i < 4; i++ {
		w.hold()
	}
	return w
}

// TestSimMatchesReferenceEngine is the proof that caller-owned events, the
// hand-written heap and the same-instant lane changed nothing a simulation
// can observe. Seeded scripts drive Sim and the previous engine in lockstep —
// Schedule, At (also in the past), Arm, re-arm after firing and after cancel,
// Cancel of pending, fired and already-canceled events from outside and from
// inside callbacks, zero-delay events made by callbacks, bursts on one
// timestamp — through Step, StepN, RunUntil, AdvanceTo (the one call that
// moves the clock without firing) and Runnable, and compare Now, NextAt,
// Pending, Fired and Runnable after every driver call and the firing log at
// the end.
func TestSimMatchesReferenceEngine(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		got, want := newWorld(simEngine{NewSim()}, seed), newWorld(refEngine{newRefSim()}, seed)
		driver := rand.New(rand.NewSource(-seed))
		both := func(f func(w *world)) { f(got); f(want) }
		for call := 0; ; call++ {
			switch r := driver.Intn(15); {
			case r < 2:
				// A burst on one timestamp, armed from outside any callback.
				at, n := got.eng.Now().Add(delays[driver.Intn(len(delays))]), 1+driver.Intn(6)
				both(func(w *world) {
					for i := 0; i < n && w.budget > 0; i++ {
						w.budget--
						id := len(w.cancels)
						w.cancels = append(w.cancels, nil)
						w.cancels[id] = w.eng.at(at, func() { w.fired(id) })
					}
				})
			case r < 4:
				both(func(w *world) { w.act() })
			case r < 7:
				g, w := got.eng.Step(), want.eng.Step()
				if g != w {
					t.Fatalf("seed %d call %d: Step = %v, reference %v", seed, call, g, w)
				}
			case r < 9:
				n := 1 + driver.Intn(8)
				if g, w := got.eng.StepN(n), want.eng.StepN(n); g != w {
					t.Fatalf("seed %d call %d: StepN(%d) = %d, reference %d", seed, call, n, g, w)
				}
			case r < 12:
				limit := got.eng.Now().Add(delays[driver.Intn(len(delays))] - time.Millisecond)
				if g, w := got.eng.RunUntil(limit), want.eng.RunUntil(limit); g != w {
					t.Fatalf("seed %d call %d: RunUntil(%v) = %v, reference %v", seed, call, limit, g, w)
				}
			default:
				limit, n := got.eng.Now().Add(delays[driver.Intn(len(delays))]-time.Millisecond), 1+driver.Intn(8)
				if g, w := got.eng.AdvanceTo(limit, n), want.eng.AdvanceTo(limit, n); g != w {
					t.Fatalf("seed %d call %d: AdvanceTo(%v, %d) = %d, reference %d", seed, call, limit, n, g, w)
				}
			}
			if g, w := got.eng.Now(), want.eng.Now(); g != w {
				t.Fatalf("seed %d call %d: Now = %v, reference %v", seed, call, g, w)
			}
			gAt, gOK := got.eng.NextAt()
			if wAt, wOK := want.eng.NextAt(); gAt != wAt || gOK != wOK {
				t.Fatalf("seed %d call %d: NextAt = %v, %v, reference %v, %v", seed, call, gAt, gOK, wAt, wOK)
			}
			if g, w := got.eng.Pending(), want.eng.Pending(); g != w {
				t.Fatalf("seed %d call %d: Pending = %d, reference %d", seed, call, g, w)
			}
			if g, w := got.eng.Fired(), want.eng.Fired(); g != w {
				t.Fatalf("seed %d call %d: Fired = %d, reference %d", seed, call, g, w)
			}
			if g, w := got.eng.Runnable(), want.eng.Runnable(); g != w {
				t.Fatalf("seed %d call %d: Runnable = %v, reference %v", seed, call, g, w)
			}
			if len(got.log) != len(want.log) {
				t.Fatalf("seed %d call %d: %d callbacks ran, reference %d", seed, call, len(got.log), len(want.log))
			}
			if got.budget == 0 && !got.eng.Runnable() {
				break
			}
		}
		if len(got.log) < 100 {
			t.Fatalf("seed %d: only %d callbacks ran", seed, len(got.log))
		}
		for i, w := range want.log {
			if g := got.log[i]; g != w {
				t.Fatalf("seed %d firing %d: %+v, reference %+v", seed, i, g, w)
			}
		}
	}
}

// TestArmPanicsOnMisuse pins the two mistakes a holder can make.
func TestArmPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	s := NewSim()
	mustPanic("Arm without Init", func() { s.Arm(new(Event), 0) })
	for _, delay := range []time.Duration{0, time.Second} {
		ev := new(Event)
		ev.Init(Func(func() {}))
		s.Arm(ev, delay)
		mustPanic("Arm of a pending event", func() { s.Arm(ev, delay) })
	}
}
