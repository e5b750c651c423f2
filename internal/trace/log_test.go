package trace

import (
	"fmt"
	"slices"
	"testing"

	"aimes/internal/sim"
)

// TestLogRetention appends ten times a small retention: the log holds
// exactly the retention (rounded up to whole segments), counts every evicted
// record, and its snapshot is the newest records in append order, qualified.
func TestLogRetention(t *testing.T) {
	for _, tc := range []struct{ retain, want int }{
		{4 * logSegment, 4 * logSegment},
		{2*logSegment + 1, 3 * logSegment}, // rounds up to whole segments
		{0, logSegment},                    // never less than one segment
	} {
		l, s := NewLog(tc.retain), new(Stream)
		total := 10 * tc.want
		for i := 0; i < total; i++ {
			l.Append(s, "s0-j1", Record{Time: sim.Time(i), Entity: "unit.x", State: "S", Detail: fmt.Sprint(i)})
		}
		if got, want := l.Dropped(), int64(total-tc.want); got != want {
			t.Fatalf("retain %d: Dropped = %d, want %d", tc.retain, got, want)
		}
		snap := l.Snapshot(nil)
		if len(snap) != tc.want {
			t.Fatalf("retain %d: snapshot holds %d records, want %d", tc.retain, len(snap), tc.want)
		}
		for k, rec := range snap {
			i := total - tc.want + k
			want := Record{Time: sim.Time(i), Entity: "unit.s0-j1.x", State: "S", Detail: fmt.Sprint(i)}
			if rec != want {
				t.Fatalf("retain %d: snapshot[%d] = %+v, want %+v", tc.retain, k, rec, want)
			}
		}
		// One more append evicts the oldest segment whole.
		l.Append(s, "s0-j1", Record{Time: sim.Time(total)})
		if got, want := len(l.Snapshot(nil)), tc.want-logSegment+1; got != want {
			t.Fatalf("retain %d: %d records retained after one more append, want %d", tc.retain, got, want)
		}
		if got, want := l.Dropped(), int64(total-tc.want+logSegment); got != want {
			t.Fatalf("retain %d: Dropped after one more append = %d, want %d", tc.retain, got, want)
		}
	}
}

// TestLogSnapshotAppends checks that Snapshot extends dst (the aggregate view
// concatenates shards this way) and leaves the log's own records raw.
func TestLogSnapshotAppends(t *testing.T) {
	l, s := NewLog(logSegment), new(Stream)
	l.Append(s, "s1-j2", Record{Time: at(1), Entity: "em", State: "ENACTING"})
	l.Append(s, "s1-j2", Record{Time: at(2), Entity: "pilot.s1-j2.a", State: "NEW"})
	head := Record{Time: at(0), Entity: "em.s0-j1", State: "DONE"}
	for pass := 0; pass < 2; pass++ { // a second read sees the same records
		got := l.Snapshot([]Record{head})
		want := []Record{head,
			{Time: at(1), Entity: "em.s1-j2", State: "ENACTING"},
			{Time: at(2), Entity: "pilot.s1-j2.a", State: "NEW"}}
		if !slices.Equal(got, want) {
			t.Fatalf("pass %d: snapshot = %+v, want %+v", pass, got, want)
		}
	}
}

// TestLogAppendAllocs pins the hot-path contract: Append allocates once per
// new segment (plus the segment list's own growth) and never per record, and
// not at all once the retention is reached, where the evicted segment becomes
// the new tail — with a reader attached to the stream and one to the log's
// tail, neither of which ever reads.
func TestLogAppendAllocs(t *testing.T) {
	rec := Record{Time: at(1), Entity: "unit.t0004", State: "EXECUTING"}
	const segs = 8
	fill := func(l *Log) func() {
		s := new(Stream)
		s.Cursor(1)
		Tail(l)
		return func() {
			for i := 0; i < segs*logSegment; i++ {
				l.Append(s, "s0-j3", rec)
			}
		}
	}
	// AllocsPerRun calls fill once to warm up, then once measured: the log
	// grows from segs to 2*segs segments inside the measurement.
	if got := testing.AllocsPerRun(1, fill(NewLog(4*segs*logSegment))); got < segs || got > segs+2 {
		t.Fatalf("growing log: %v allocs for %d appends, want one per new segment (%d)", got, segs*logSegment, segs)
	}
	if got := testing.AllocsPerRun(1, fill(NewLog(2*logSegment))); got != 0 {
		t.Fatalf("log at its retention: %v allocs for %d appends, want 0", got, segs*logSegment)
	}
}
