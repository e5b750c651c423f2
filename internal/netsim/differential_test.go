package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"aimes/internal/sim"
)

// subject is a link implementation behind the handful of calls a script
// makes, on an engine of its own.
type subject struct {
	eng      *sim.Sim
	link     *Link // nil for the reference
	start    func(size int64, onDone func()) (cancel func() bool)
	setBW    func(float64)
	setMax   func(int)
	counters func() string
}

func newSubject(bandwidth float64, latency time.Duration) subject {
	eng := sim.NewSim()
	l := NewLink(eng, "wan", bandwidth, latency)
	return subject{
		eng:  eng,
		link: l,
		start: func(size int64, onDone func()) func() bool {
			t := l.Start(size, onDone)
			return func() bool { return l.Cancel(t) }
		},
		setBW:  l.SetBandwidth,
		setMax: l.SetMaxConcurrent,
		counters: func() string {
			return fmt.Sprintf("active=%d pending=%d latent=%d", l.Active(), queued(l), l.latent)
		},
	}
}

// newIntoSubject is the link driven the way the unit manager drives it:
// through StartInto, into transfers the caller owns and starts again once
// they are idle — the one that just finished (before its onDone runs, which
// may start the follow-up into it) or one that was canceled. reused counts
// the starts into a transfer that finished and into one that was canceled.
func newIntoSubject(bandwidth float64, latency time.Duration, reused *[2]int) subject {
	s := newSubject(bandwidth, latency)
	l := s.link
	type idle struct {
		t        *Transfer
		canceled int // 1 if it was canceled, 0 if it finished
	}
	var pool []idle
	s.start = func(size int64, onDone func()) func() bool {
		t := new(Transfer)
		if n := len(pool); n > 0 {
			t = pool[n-1].t
			reused[pool[n-1].canceled]++
			pool = pool[:n-1]
		}
		mine := true // t still carries this transfer
		l.StartInto(t, size, sim.Func(func() {
			mine = false
			pool = append(pool, idle{t, 0})
			onDone()
		}))
		return func() bool {
			if !mine {
				return false
			}
			mine = false
			pool = append(pool, idle{t, 1})
			return l.Cancel(t)
		}
	}
	return s
}

func newRefSubject(bandwidth float64, latency time.Duration) subject {
	eng := sim.NewSim()
	l := newRefLink(eng, bandwidth, latency)
	return subject{
		eng: eng,
		start: func(size int64, onDone func()) func() bool {
			t := l.Start(size, onDone)
			return func() bool { return l.Cancel(t) }
		},
		setBW:  l.SetBandwidth,
		setMax: l.SetMaxConcurrent,
		counters: func() string {
			return fmt.Sprintf("active=%d pending=%d latent=%d", len(l.active), len(l.pending), l.latent)
		},
	}
}

type opKind int

const (
	opStart opKind = iota
	opCancel
	opBandwidth
	opMaxConcurrent
)

type op struct {
	at     sim.Time
	kind   opKind
	size   int64   // opStart
	victim int     // opCancel: index among the transfers started so far
	bw     float64 // opBandwidth
	max    int     // opMaxConcurrent
}

// script draws n operations. Sizes, bandwidths and gaps come from small sets
// of round values so that completions tie with each other and with the
// operations themselves — the cases where event order is decided by
// scheduling order alone.
func script(rng *rand.Rand, n int) []op {
	sizes := []int64{0, 0, 1e5, 1e6, 1e6, 1e6, 2e6, 3e6}
	gaps := []time.Duration{0, 0, time.Millisecond, 250 * time.Millisecond, time.Second, 2 * time.Second}
	ops := make([]op, n)
	var at sim.Time
	for i := range ops {
		at = at.Add(gaps[rng.Intn(len(gaps))])
		o := op{at: at}
		switch r := rng.Intn(20); {
		case r < 12:
			o.kind = opStart
			o.size = sizes[rng.Intn(len(sizes))]
			if rng.Intn(4) == 0 {
				o.size = rng.Int63n(5e6)
			}
		case r < 16:
			o.kind = opCancel
			o.victim = rng.Intn(n)
		case r < 18:
			o.kind = opBandwidth
			o.bw = []float64{5e5, 1e6, 2e6, 1e7}[rng.Intn(4)]
		default:
			o.kind = opMaxConcurrent
			o.max = []int{0, 1, 8}[rng.Intn(3)]
		}
		ops[i] = o
	}
	return ops
}

// completion is one onDone as the script saw it.
type completion struct {
	id int
	at sim.Time
}

// load schedules the script on the subject's engine and returns the log its
// completions append to. Every third transfer starts a follow-up from its
// onDone, as a unit's staging chain does.
func load(s subject, ops []op) *[]completion {
	log := &[]completion{}
	var cancels []func() bool
	var start func(size int64)
	start = func(size int64) {
		id := len(cancels)
		cancels = append(cancels, nil)
		cancels[id] = s.start(size, func() {
			*log = append(*log, completion{id, s.eng.Now()})
			if id%3 == 0 {
				start(size / 2)
			}
		})
	}
	for _, o := range ops {
		o := o
		s.eng.At(o.at, func() {
			switch o.kind {
			case opStart:
				start(o.size)
			case opCancel:
				if len(cancels) > 0 {
					cancels[o.victim%len(cancels)]()
				}
			case opBandwidth:
				s.setBW(o.bw)
			case opMaxConcurrent:
				s.setMax(o.max)
			}
		})
	}
	return log
}

// TestOneEventPerLinkMatchesPerTransferEvents is the proof that keeping one
// completion event per link changed nothing a simulation can observe: on
// seeded random scripts the link and the per-transfer-event reference fire
// the same callbacks at the same times in the same order, agree on every
// counter after every engine step, and fire the same number of events —
// whether the link allocates each transfer (Start) or is handed transfers
// that carried earlier ones (StartInto).
func TestOneEventPerLinkMatchesPerTransferEvents(t *testing.T) {
	var reused [2]int
	for _, into := range []bool{false, true} {
		matchReference(t, into, &reused)
	}
	if reused[0] == 0 || reused[1] == 0 {
		t.Fatalf("StartInto reused %d finished and %d canceled transfers, want some of each", reused[0], reused[1])
	}
}

func matchReference(t *testing.T, into bool, reused *[2]int) {
	latencies := []time.Duration{0, 10 * time.Millisecond, time.Second}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		latency := latencies[rng.Intn(len(latencies))]
		ops := script(rng, 250)
		got, want := newSubject(1e6, latency), newRefSubject(1e6, latency)
		if into {
			got = newIntoSubject(1e6, latency, reused)
		}
		gotLog, wantLog := load(got, ops), load(want, ops)
		for step := 0; ; step++ {
			g, w := got.eng.Step(), want.eng.Step()
			if g != w {
				t.Fatalf("into=%v seed %d step %d: link stepped=%v, reference stepped=%v", into, seed, step, g, w)
			}
			if !g {
				break
			}
			if got.eng.Now() != want.eng.Now() {
				t.Fatalf("into=%v seed %d step %d: link at %v, reference at %v", into, seed, step, got.eng.Now(), want.eng.Now())
			}
			if gc, wc := got.counters(), want.counters(); gc != wc {
				t.Fatalf("into=%v seed %d step %d (%v): link %s, reference %s", into, seed, step, got.eng.Now(), gc, wc)
			}
			if len(*gotLog) != len(*wantLog) {
				t.Fatalf("into=%v seed %d step %d (%v): link completed %d transfers, reference %d",
					into, seed, step, got.eng.Now(), len(*gotLog), len(*wantLog))
			}
		}
		if len(*gotLog) == 0 {
			t.Fatalf("into=%v seed %d: script completed no transfer", into, seed)
		}
		for i, w := range *wantLog {
			if g := (*gotLog)[i]; g != w {
				t.Fatalf("into=%v seed %d completion %d: link %+v, reference %+v", into, seed, i, g, w)
			}
		}
		if got.eng.Fired() != want.eng.Fired() {
			t.Fatalf("into=%v seed %d: link fired %d events, reference %d", into, seed, got.eng.Fired(), want.eng.Fired())
		}
	}
}

// TestLinkHoldsOnePendingCompletion checks the structure directly: however
// many transfers flow, the engine holds one event for the link.
func TestLinkHoldsOnePendingCompletion(t *testing.T) {
	eng := sim.NewSim()
	l := NewLink(eng, "wan", 1e6, 0)
	completed := 0
	for i := 0; i < 32; i++ {
		l.Start(int64(1e6*(i+1)), func() { completed++ })
	}
	for i := 0; i < 32; i++ {
		eng.Step() // the latency events
	}
	if l.Active() != 32 || eng.Pending() != 1 {
		t.Fatalf("active=%d with %d pending engine events, want 32 and 1", l.Active(), eng.Pending())
	}
	eng.Run()
	if completed != 32 || eng.Pending() != 0 {
		t.Fatalf("completed=%d, %d events left", completed, eng.Pending())
	}
}

// changeAllocs measures one start and one finish on a link that already
// carries busy long transfers.
func changeAllocs(busy int) float64 {
	eng := sim.NewSim()
	l := NewLink(eng, "wan", 1e6, 0)
	for i := 0; i < busy; i++ {
		l.Start(1<<50, nil)
	}
	for i := 0; i < busy; i++ {
		eng.Step()
	}
	return testing.AllocsPerRun(200, func() {
		l.Start(1, nil)
		eng.Step() // latency elapsed: admitted, shares recomputed
		eng.Step() // its last byte arrived: shares recomputed again
	})
}

// TestShareChangeAllocatesConstant pins the cost model: a start or finish
// re-schedules one event, so its allocations do not depend on how many
// transfers are active.
func TestShareChangeAllocatesConstant(t *testing.T) {
	a8, a64 := changeAllocs(8), changeAllocs(64)
	// The transfer. Its latency event is a field of it and the completion
	// event a field of the link; neither carries a closure.
	if a8 != 1 {
		t.Errorf("start+finish with 8 active transfers allocates %.0f objects, want 1", a8)
	}
	if a8 != a64 {
		t.Errorf("start+finish allocates %.0f objects with 8 active transfers but %.0f with 64", a8, a64)
	}
}

// TestStartIntoPanicsWhileInFlight: a transfer carries one data movement at a
// time. Starting into it while it waits out the latency, queues behind the
// concurrency bound or moves bytes is a bug in the caller; once it has
// finished or been canceled it is free again.
func TestStartIntoPanicsWhileInFlight(t *testing.T) {
	eng := sim.NewSim()
	l := NewLink(eng, "wan", 1e6, time.Second)
	l.SetMaxConcurrent(1)
	var first, second Transfer
	finished := 0
	count := sim.Func(func() { finished++ })
	refused := func(tr *Transfer) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		l.StartInto(tr, 1, count)
		return false
	}
	l.StartInto(&first, 1e6, count)
	l.StartInto(&second, 1e6, count)
	if !refused(&first) {
		t.Fatal("started into a transfer waiting out the link latency")
	}
	eng.Step()
	eng.Step()
	if l.Active() != 1 || queued(l) != 1 {
		t.Fatalf("active=%d pending=%d, want 1 and 1", l.Active(), queued(l))
	}
	if !refused(&first) || !refused(&second) {
		t.Fatal("started into an active or a pending transfer")
	}
	if !l.Cancel(&second) || refused(&second) {
		t.Fatal("a canceled transfer is not free to start again")
	}
	eng.Run()
	if finished != 2 || refused(&first) {
		t.Fatalf("%d transfers finished, want 2; or a finished transfer is not free to start again", finished)
	}
	eng.Run()
	if finished != 3 {
		t.Fatalf("finished=%d, want 3", finished)
	}
}
