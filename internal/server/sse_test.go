package server

import (
	"testing"
	"time"

	"aimes"
	"aimes/internal/trace"
)

// The SSE routes keep no events of their own: a stream is a cursor
// (aimes.TraceSub) over the shard's trace log. These tests restate, against
// that cursor, what the per-job replay ring and its subscriber channels used
// to promise a reconnecting or slow client. The log evicts whole segments of
// seg records, so the cases count in segments where the ring counted events.
const seg = 1024

// publish appends n records of one job to l.
func publish(l *trace.Log, s *trace.Stream, n int) {
	for i := 0; i < n; i++ {
		l.Append(s, "s0-j1", aimes.TraceRecord{Entity: "unit.x", State: "S"})
	}
}

// drain reads sub until it has nothing more, checking the sequence numbers
// are dense, and returns the first one and the count.
func drain(t *testing.T, sub *aimes.TraceSub) (first, n int64, done bool) {
	t.Helper()
	var buf [300]aimes.TraceRecord
	for {
		got, seq, d := sub.Read(buf[:])
		if got > 0 {
			if n == 0 {
				first = seq
			} else if seq != first+n {
				t.Fatalf("batch starts at seq %d, the previous one ended at %d", seq, first+n-1)
			}
			n += int64(got)
		}
		if d || got < len(buf) {
			return first, n, d
		}
	}
}

// TestFanoutAttach is the replay contract a reconnecting SSE client
// (?from=, Last-Event-ID) relies on: a cursor attached at from replays
// exactly the retained events with seq >= from, and counts the ones the log
// already evicted.
func TestFanoutAttach(t *testing.T) {
	cases := []struct {
		name       string
		window     int   // log retention, records
		published  int   // events logged before attaching
		from       int64 // attach point
		wantFirst  int64 // first replayed seq (when any)
		wantReplay int64 // number replayed
		wantMissed int64
	}{
		{"empty stream", 4 * seg, 0, 0, 0, 0, 0},
		{"from zero means the beginning", 4 * seg, 3, 0, 1, 3, 0},
		{"from one means the beginning", 4 * seg, 3, 1, 1, 3, 0},
		{"resume mid-ring", 4 * seg, 4 * seg, 2*seg + 1, 2*seg + 1, 2 * seg, 0},
		{"resume past the newest", 4 * seg, 4 * seg, 4*seg + 1, 0, 0, 0},
		{"ring exactly full", 4 * seg, 4 * seg, 1, 1, 4 * seg, 0},
		{"one eviction", 4 * seg, 4*seg + 1, 1, seg + 1, 3*seg + 1, seg},
		{"wrapped twice, from the beginning", 4 * seg, 10 * seg, 0, 6*seg + 1, 4 * seg, 6 * seg},
		{"wrapped, resume inside the evicted range", 4 * seg, 10 * seg, 5*seg + 1, 6*seg + 1, 4 * seg, seg},
		{"wrapped, resume at the oldest retained", 4 * seg, 10 * seg, 6*seg + 1, 6*seg + 1, 4 * seg, 0},
		{"wrapped, resume inside the ring", 4 * seg, 10 * seg, 8*seg + 1, 8*seg + 1, 2 * seg, 0},
		{"capacity below one is one", 0, seg + 3, 0, seg + 1, 3, seg},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, s := trace.NewLog(tc.window), new(trace.Stream)
			publish(l, s, tc.published)
			sub := s.Cursor(tc.from)
			defer sub.Close()
			first, n, done := drain(t, sub)
			if done {
				t.Fatal("a live stream reports done")
			}
			if n != tc.wantReplay || (n > 0 && first != tc.wantFirst) {
				t.Errorf("replayed %d events from seq %d, want %d from %d", n, first, tc.wantReplay, tc.wantFirst)
			}
			if got := sub.Dropped(); got != tc.wantMissed {
				t.Errorf("Dropped = %d, want %d", got, tc.wantMissed)
			}
			// The live tail continues where the replay ended.
			publish(l, s, 1)
			select {
			case <-sub.Ready():
			case <-time.After(5 * time.Second):
				t.Fatal("no wake-up after an append")
			}
			if first, n, _ := drain(t, sub); n != 1 || first != int64(tc.published)+1 {
				t.Errorf("live tail delivered %d events from seq %d, want seq %d", n, first, tc.published+1)
			}
		})
	}
}

// TestFanoutSlowSubscriber: a reader that stalls never blocks Append, learns
// exactly what it lost when it reads again, and a reader that keeps up is
// unaffected by it.
func TestFanoutSlowSubscriber(t *testing.T) {
	l, s := trace.NewLog(2*seg), new(trace.Stream)
	slow, fast := s.Cursor(0), s.Cursor(0)
	var fastGot int64
	for i := 0; i < 5; i++ {
		published := make(chan struct{})
		go func() {
			defer close(published)
			publish(l, s, seg)
		}()
		select {
		case <-published:
		case <-time.After(5 * time.Second):
			t.Fatal("Append blocked on a reader that does not read")
		}
		_, n, _ := drain(t, fast)
		fastGot += n
	}
	if fastGot != 5*seg || fast.Dropped() != 0 {
		t.Errorf("the reader that kept up got %d events and dropped %d, want %d and 0", fastGot, fast.Dropped(), 5*seg)
	}
	// What the stalled reader gets is the retained tail, in order, after
	// learning how much went before it.
	first, n, _ := drain(t, slow)
	if got := slow.Dropped(); got != 3*seg {
		t.Errorf("the stalled reader dropped %d, want %d (5 segments through a window of 2)", got, 3*seg)
	}
	if first != 3*seg+1 || n != 2*seg {
		t.Errorf("the stalled reader got %d events from seq %d, want %d from %d", n, first, 2*seg, 3*seg+1)
	}
	// A closed cursor is done once drained, and stops counting.
	slow.Close()
	slow.Close() // idempotent
	publish(l, s, 3*seg)
	if got := slow.Dropped(); got != 3*seg {
		t.Errorf("a closed cursor kept counting drops: %d", got)
	}
	if s.Missed() != 3*seg {
		t.Errorf("the job's EventsDropped is %d, want the stalled reader's %d", s.Missed(), 3*seg)
	}
}

// TestFanoutFinish: the end of the job reaches every attached reader after
// its last event, and a reader attaching after the end replays what the log
// still retains and is done at once.
func TestFanoutFinish(t *testing.T) {
	l, s := trace.NewLog(seg), new(trace.Stream)
	a, b := s.Cursor(0), s.Cursor(0)
	publish(l, s, seg+6)
	if _, _, done := drain(t, a); done {
		t.Fatal("stream reports done before the job ended")
	}
	select {
	case <-b.Ready(): // the appends' wake-up, so the next one is the end's
	default:
	}
	s.End()
	s.End() // ending twice is harmless
	if first, n, done := drain(t, a); n != 0 || !done {
		t.Errorf("reader a, caught up before the end: %d more events from seq %d, done %v", n, first, done)
	}
	select {
	case <-b.Ready():
	default:
		t.Error("the end did not wake reader b")
	}
	if first, n, done := drain(t, b); first != seg+1 || n != 6 || !done || b.Dropped() != seg {
		t.Errorf("reader b, stalled until the end: %d events from seq %d, done %v, dropped %d; want 6 from %d, done, %d",
			n, first, done, b.Dropped(), seg+1, seg)
	}
	a.Close() // closing after the end must be harmless

	late := s.Cursor(0)
	first, n, done := drain(t, late)
	if !done || first != seg+1 || n != 6 {
		t.Errorf("late attach: %d events from seq %d, done %v; want 6 from %d and done", n, first, done, seg+1)
	}
	if late.Dropped() != seg {
		t.Errorf("late attach missed %d, want %d", late.Dropped(), seg)
	}
}
