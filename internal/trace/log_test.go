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
		l := NewLog(tc.retain)
		total := 10 * tc.want
		for i := 0; i < total; i++ {
			l.Append(Record{Time: sim.Time(i), Entity: "unit.x", State: "S", Detail: fmt.Sprint(i)}, "s0-j1")
		}
		if l.Len() != tc.want {
			t.Fatalf("retain %d: Len = %d, want %d", tc.retain, l.Len(), tc.want)
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
		l.Append(Record{Time: sim.Time(total)}, "s0-j1")
		if got, want := l.Len(), tc.want-logSegment+1; got != want {
			t.Fatalf("retain %d: Len after one more append = %d, want %d", tc.retain, got, want)
		}
		if got, want := l.Dropped(), int64(total-tc.want+logSegment); got != want {
			t.Fatalf("retain %d: Dropped after one more append = %d, want %d", tc.retain, got, want)
		}
	}
}

// TestLogSnapshotAppends checks that Snapshot extends dst (the aggregate view
// concatenates shards this way) and leaves the log's own records raw.
func TestLogSnapshotAppends(t *testing.T) {
	l := NewLog(logSegment)
	l.Append(Record{Time: at(1), Entity: "em", State: "ENACTING"}, "s1-j2")
	l.Append(Record{Time: at(2), Entity: "pilot.s1-j2.a", State: "NEW"}, "s1-j2")
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
// the new tail.
func TestLogAppendAllocs(t *testing.T) {
	rec := Record{Time: at(1), Entity: "unit.t0004", State: "EXECUTING"}
	const segs = 8
	fill := func(l *Log) func() {
		return func() {
			for i := 0; i < segs*logSegment; i++ {
				l.Append(rec, "s0-j3")
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
