package trace

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

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
		if got, want := l.Retained(), int64(tc.want); got != want || got+l.Dropped() != int64(total) {
			t.Fatalf("retain %d: Retained = %d, want %d; with %d dropped of %d appended", tc.retain, got, want, l.Dropped(), total)
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
		if got := l.Retained() + l.Dropped(); got != int64(total+1) {
			t.Fatalf("retain %d: %d retained + %d dropped of %d appended", tc.retain, l.Retained(), l.Dropped(), total+1)
		}
	}
}

// TestLogRetentionCap checks that no retention lets a thread link outgrow
// an entry's 32-bit distance: a link spans less than the window, so the
// window is capped below 2^31 records.
func TestLogRetentionCap(t *testing.T) {
	for _, retain := range []int{math.MaxInt32, math.MaxInt, -1} {
		l := NewLog(retain)
		if window := int64(l.maxSegs) * logSegment; l.maxSegs < 1 || window-1 > math.MaxInt32 {
			t.Errorf("NewLog(%d) retains %d records; its longest link does not fit in an int32", retain, window)
		}
	}
	if got := NewLog(math.MaxInt).maxSegs; got != maxLogSegs {
		t.Errorf("NewLog(MaxInt) keeps %d segments, want the cap %d", got, maxLogSegs)
	}
}

// TestLogEntryFootprint pins what one stored record costs: an entry is the
// record's time, its stream and three 32-bit words — the link, one code word
// for the state and the detail in the stream's vocabularies and one for the
// entity in the stream's names — 32 bytes, of which the stream is the one
// pointer. It was 40 with the entity a string, 56 with the detail a string
// of its own, 72 with the state one too. A 24-byte entry with a 32-bit
// stream index instead of the pointer made segments blocks the collector
// never scans, and paper-matrix's median job latency rose 24–39% with them.
// The stream, one per job, carries the vocabularies and the names: thirteen
// states, eleven details and four arenas inline, 576 bytes (496 without the
// names, 392 with sixteen states and no details).
func TestLogEntryFootprint(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got > 32 {
		t.Errorf("a log entry is %d bytes, want at most 32", got)
	}
	typ := reflect.TypeOf(entry{})
	for i := range typ.NumField() {
		if f := typ.Field(i); f.Name != "s" && !pointerFree(f.Type) {
			t.Errorf("log entry field %s is a %s, which holds a pointer", f.Name, f.Type)
		}
	}
	if got := unsafe.Sizeof(Stream{}); got > 576 {
		t.Errorf("a Stream is %d bytes, want at most 576", got)
	}
}

// pointerFree reports whether a value of type t holds no pointer.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// TestVocabularyOverflow feeds one stream far more distinct states and
// details than its inline vocabularies hold — forty states in turn, and
// every other record a size of its own, as a job with sampled file sizes
// sends — over several evicted segments. Every record reads back exactly;
// the vocabularies stay at their fixed size, holding the first states and
// details used; each record that misses one goes to its segment's side table
// as one record, and nothing else does, so an append's cost does not grow with
// the number of distinct strings.
func TestVocabularyOverflow(t *testing.T) {
	const total, retain = 5 * logSegment, 2 * logSegment
	l, s := NewLog(retain), new(Stream)
	rec := func(i int) Record {
		r := Record{Time: sim.Time(i), Entity: "unit.x", State: fmt.Sprintf("S%02d", i%40)}
		if i%2 == 1 {
			r.Detail = fmt.Sprintf("%d bytes", i/2)
		}
		return r
	}
	// The first states and sizes fit, as many as the vocabularies hold.
	missed := func(i int) bool { return i%40 >= len(s.states) || i/2 >= len(s.details) && i%2 == 1 }
	var want []Record
	misses := 0 // in the newest segment
	for i := range total {
		l.Append(s, "s0-j1", rec(i))
		want = append(want, rec(i))
		want[i].Entity = "unit.s0-j1.x"
		if i%logSegment == 0 {
			misses = 0
		}
		if missed(i) {
			misses++
		}
		if g := &l.segs[i/logSegment%l.maxSegs]; len(g.side) != misses {
			t.Fatalf("after record %d: its segment's side table holds %d records for %d misses", i, len(g.side), misses)
		}
	}
	if int(s.nstates) != len(s.states) || int(s.ndetails) != len(s.details) {
		t.Fatalf("vocabularies hold %d states and %d details, want full at %d and %d", s.nstates, s.ndetails, len(s.states), len(s.details))
	}
	for i, v := range s.states {
		if v != rec(i).State {
			t.Fatalf("state code %d is %q, want the %dth state used, %q", i, v, i, rec(i).State)
		}
	}
	for i, v := range s.details {
		if v != rec(2*i+1).Detail {
			t.Fatalf("detail code %d is %q, want the %dth detail used, %q", i+1, v, i, rec(2*i+1).Detail)
		}
	}
	if got := l.Snapshot(nil); !slices.Equal(got, want[total-retain:]) {
		t.Fatalf("snapshot of %d records differs from the last %d appended", len(got), retain)
	}
	c := s.Cursor(1)
	s.End()
	var got []Record
	for r := range c.C() {
		got = append(got, r)
	}
	for i := range got {
		got[i].Entity = QualifyEntity(got[i].Entity, "s0-j1")
	}
	if !slices.Equal(got, want[total-retain:]) || c.Dropped() != total-retain {
		t.Fatalf("stream cursor read %d records and dropped %d, want the last %d and %d", len(got), c.Dropped(), retain, total-retain)
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

// TestReleasedStreamDropsItsNames runs 200 jobs of 100 records one after
// another through a log that retains two segments, each stream ended after
// its last record: every retained record still resolves to its own job's
// stream, a stream that has ended lets go of its names and vocabularies once
// its last record is evicted, one that has not ended keeps them, and a
// cursor attached to a released stream counts all of its records dropped.
func TestReleasedStreamDropsItsNames(t *testing.T) {
	const jobs, per = 200, 100
	l := NewLog(2 * logSegment)
	open := new(Stream) // never ends
	l.Append(open, "s0-j0", Record{State: "S"})
	streams := make([]*Stream, jobs)
	for j := range streams {
		s := new(Stream)
		streams[j] = s
		for i := range per {
			l.Append(s, fmt.Sprintf("s0-j%d", j+1), Record{Time: sim.Time(j*per + i), Entity: "em", State: "S"})
		}
		s.End()
	}
	if open.nstates != 1 || open.states[0] != "S" {
		t.Fatalf("a stream that has not ended lost its states: %d, %q", open.nstates, open.states[0])
	}
	for _, rec := range l.Snapshot(nil) {
		if want := fmt.Sprintf("em.s0-j%d", int(rec.Time)/per+1); rec.Entity != want {
			t.Fatalf("record at %v reads entity %q, want %q", rec.Time, rec.Entity, want)
		}
	}
	if s := streams[0]; s.narenas+s.nstates != 0 || s.arenas[0] != "" || s.states[0] != "" {
		t.Fatalf("the first job's stream still holds %d arenas and %d states with none of its records retained", s.narenas, s.nstates)
	}
	c := streams[0].Cursor(1)
	if n, _, done := c.Read(make([]Record, 8)); n != 0 || !done || c.Dropped() != per {
		t.Fatalf("a cursor on a released stream read %d records, done %v, dropped %d; want 0, true, %d", n, done, c.Dropped(), per)
	}
}

// TestCursorsAttachWhileAppending attaches cursors to a bound stream at
// different moments while one writer appends to it, which takes the
// stream's lock only while a cursor is attached. Every cursor delivers every
// record from the first, in order, and is woken after each append it has
// not read: one that waits longer than a generous bound after its last wake
// has lost one. The stream never ends, so only appends wake them. Run it
// under -race.
func TestCursorsAttachWhileAppending(t *testing.T) {
	const total, readers = 20_000, 8
	l, s := NewLog(total+logSegment), new(Stream)
	l.Append(s, "s0-j1", Record{Time: 0, Entity: "em", State: "S"})
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l.Retained() < int64(r*total/readers) {
				runtime.Gosched()
			}
			c := s.Cursor(1)
			defer c.Close()
			var buf [64]Record
			for next := int64(1); next <= total; {
				n, seq, _ := c.Read(buf[:])
				if n > 0 && seq != next {
					t.Errorf("reader %d: a batch from seq %d after %d records", r, seq, next-1)
					return
				}
				for i, rec := range buf[:n] {
					if rec.Time != sim.Time(next-1+int64(i)) {
						t.Errorf("reader %d: seq %d holds the record of %v", r, next+int64(i), rec.Time)
						return
					}
				}
				if next += int64(n); next <= total && n < len(buf) {
					select {
					case <-c.Ready():
					case <-time.After(20 * time.Second):
						t.Errorf("reader %d: no wake for 20 s with %d of %d records read", r, next-1, total)
						return
					}
				}
			}
		}()
	}
	for i := 1; i < total; i++ {
		l.Append(s, "s0-j1", Record{Time: sim.Time(i), Entity: "em", State: "S"})
	}
	wg.Wait()
}

// BenchmarkLogAppend appends one record through a bound stream, as a job's
// execution does: its entity carved from the job's unit ids, its state in
// the stream's vocabulary. With a cursor attached the append also takes the
// stream's lock to wake it. The log retains every record, so B/op is an
// entry's share of its segment.
func BenchmarkLogAppend(b *testing.B) {
	for _, attached := range []bool{false, true} {
		name := "bare"
		if attached {
			name = "cursor"
		}
		b.Run(name, func(b *testing.B) {
			l, s := NewLog(b.N+logSegment), new(Stream)
			if attached {
				defer s.Cursor(1).Close()
			}
			ids := "unit.t0000unit.t0001unit.t0002unit.t0003"
			l.AppendEntity(s, "s0-j3", 0, Carved(ids, 0, 10), "NEW", "")
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				l.AppendEntity(s, "s0-j3", sim.Time(i), Carved(ids, i%4*10, 10), "EXECUTING", "")
			}
		})
	}
}
