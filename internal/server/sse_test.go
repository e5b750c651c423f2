package server

import (
	"slices"
	"testing"
	"time"

	"aimes/client"
)

// seqs extracts the sequence numbers of a replay.
func seqs(evs []client.Event) []int64 {
	out := make([]int64, len(evs))
	for i, ev := range evs {
		out[i] = ev.Seq
	}
	return out
}

// TestFanoutAttach is the replay-ring contract a reconnecting SSE client
// (Last-Event-ID) relies on: attach(from) replays exactly the retained
// events with seq >= from, and counts the ones the ring already evicted.
func TestFanoutAttach(t *testing.T) {
	cases := []struct {
		name       string
		ring       int   // replay capacity
		published  int   // events published before attaching
		from       int64 // attach point
		wantReplay []int64
		wantMissed int64
	}{
		{"empty stream", 4, 0, 0, nil, 0},
		{"from zero means the beginning", 4, 3, 0, []int64{1, 2, 3}, 0},
		{"from one means the beginning", 4, 3, 1, []int64{1, 2, 3}, 0},
		{"resume mid-ring", 4, 4, 3, []int64{3, 4}, 0},
		{"resume past the newest", 4, 4, 5, nil, 0},
		{"ring exactly full", 4, 4, 1, []int64{1, 2, 3, 4}, 0},
		{"one eviction", 4, 5, 1, []int64{2, 3, 4, 5}, 1},
		{"wrapped twice, from the beginning", 4, 10, 0, []int64{7, 8, 9, 10}, 6},
		{"wrapped, resume inside the evicted range", 4, 10, 5, []int64{7, 8, 9, 10}, 2},
		{"wrapped, resume at the oldest retained", 4, 10, 7, []int64{7, 8, 9, 10}, 0},
		{"wrapped, resume inside the ring", 4, 10, 9, []int64{9, 10}, 0},
		{"capacity below one is one", 0, 3, 0, []int64{3}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFanout(tc.ring)
			for i := 0; i < tc.published; i++ {
				f.publish(client.Event{Entity: "unit"})
			}
			sub, replay, missed, done, _ := f.attach(tc.from, 1)
			if sub == nil || done {
				t.Fatalf("attach to a live stream: sub %v, done %v", sub, done)
			}
			if got := seqs(replay); !slices.Equal(got, tc.wantReplay) {
				t.Errorf("replay = %v, want %v", got, tc.wantReplay)
			}
			if missed != tc.wantMissed {
				t.Errorf("missed = %d, want %d", missed, tc.wantMissed)
			}
			// The live tail continues where the replay ended.
			f.publish(client.Event{})
			if ev := <-sub.ch; ev.Seq != int64(tc.published)+1 {
				t.Errorf("first live event has seq %d, want %d", ev.Seq, tc.published+1)
			}
		})
	}
}

// TestFanoutSlowSubscriber: a subscriber whose buffer is full loses events
// to its own drop counter; publish never blocks and other subscribers are
// unaffected.
func TestFanoutSlowSubscriber(t *testing.T) {
	f := newFanout(8)
	slow, _, _, _, _ := f.attach(0, 2)
	fast, _, _, _, _ := f.attach(0, 16)
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 0; i < 10; i++ {
			f.publish(client.Event{})
		}
	}()
	select {
	case <-published:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a full subscriber buffer")
	}
	if got := f.subDropped(slow); got != 8 {
		t.Errorf("slow subscriber dropped %d, want 8 (10 published into a buffer of 2)", got)
	}
	if got := f.subDropped(fast); got != 0 {
		t.Errorf("fast subscriber dropped %d, want 0", got)
	}
	// What the slow subscriber did get is the head of the stream, in order.
	for want := int64(1); want <= 2; want++ {
		if ev := <-slow.ch; ev.Seq != want {
			t.Errorf("slow subscriber got seq %d, want %d", ev.Seq, want)
		}
	}
	if len(fast.ch) != 10 {
		t.Errorf("fast subscriber holds %d events, want 10", len(fast.ch))
	}
	// A detached subscriber's channel closes and it stops counting.
	f.detach(slow)
	if _, open := <-slow.ch; open {
		t.Error("detach left the channel open")
	}
	f.detach(slow) // idempotent
	f.publish(client.Event{})
	if got := f.subDropped(slow); got != 8 {
		t.Errorf("detached subscriber kept counting drops: %d", got)
	}
}

// TestFanoutFinish: finish closes every live subscriber exactly once, and a
// late attach gets the replay, done, and the terminal snapshot instead of a
// subscription.
func TestFanoutFinish(t *testing.T) {
	f := newFanout(4)
	a, _, _, _, _ := f.attach(0, 8)
	b, _, _, _, _ := f.attach(0, 8)
	for i := 0; i < 6; i++ {
		f.publish(client.Event{})
	}
	if _, done := f.finalInfo(); done {
		t.Fatal("stream reports done before finish")
	}
	final := client.JobInfo{ID: "job-7", State: "done"}
	f.finish(final)
	f.finish(client.JobInfo{ID: "other"}) // a second finish is a no-op
	for name, sub := range map[string]*fanSub{"a": a, "b": b} {
		n := 0
		for range sub.ch { // terminates only if the channel was closed
			n++
		}
		if n != 6 {
			t.Errorf("subscriber %s drained %d events before close, want 6", name, n)
		}
	}
	f.detach(a) // detaching after finish must not double-close

	sub, replay, missed, done, got := f.attach(0, 8)
	if sub != nil || !done {
		t.Fatalf("late attach: sub %v, done %v; want no subscription and done", sub, done)
	}
	if want := []int64{3, 4, 5, 6}; !slices.Equal(seqs(replay), want) {
		t.Errorf("late replay = %v, want %v", seqs(replay), want)
	}
	if missed != 2 {
		t.Errorf("late attach missed %d, want 2", missed)
	}
	if got.ID != final.ID || got.State != final.State {
		t.Errorf("late attach snapshot %+v, want the first finish's %+v", got, final)
	}
	if info, done := f.finalInfo(); !done || info.ID != final.ID {
		t.Errorf("finalInfo = %+v, %v", info, done)
	}
}
