package trace

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"aimes/internal/sim"
)

// The cursor's reference model: every append in order, and from it — by brute
// force over positions — what a reader at a given point must be handed. The
// log's own bookkeeping (thread links, per-stream eviction counts, the ring,
// the streams' state vocabularies) is nowhere in it.
type cursorOracle struct {
	maxSegs  int
	appended [][2]int64 // by position: the stream and the sequence number of each append
	streams  [][]int64  // per stream, the position of each of its records (seq-1 → position)
}

func streamNS(k int) string { return fmt.Sprintf("s0-j%d", k) }

// oracleStates is the pool the streams draw their states from: more than a
// stream's inline vocabulary holds, so every long stream spills.
var oracleStates = func() []string {
	states := make([]string, 19)
	for i := range states {
		states[i] = fmt.Sprintf("STATE_%02d", i)
	}
	return states
}()

// record is what stream k's seq-th record looks like: its time is its log
// position, so a record delivered out of place cannot pass for another, and
// two records in three carry a detail naming both. Stream k walks the state
// pool in steps of k+1, meeting every state (19 is prime) in an order of its
// own, so one code stands for different states in different streams.
func (o *cursorOracle) record(k int, seq int64) Record {
	rec := Record{Time: sim.Time(o.streams[k][seq-1]), Entity: "unit.x",
		State: oracleStates[seq*int64(k+1)%int64(len(oracleStates))]}
	if seq%3 != 0 {
		rec.Detail = fmt.Sprintf("%d/%d", k, seq)
	}
	return rec
}

// qualified is the record at log position p as a tail cursor or Snapshot
// hands it out.
func (o *cursorOracle) qualified(p int64) Record {
	k := int(o.appended[p][0])
	rec := o.record(k, o.appended[p][1])
	rec.Entity = QualifyEntity(rec.Entity, streamNS(k))
	return rec
}

func (o *cursorOracle) append(l *Log, streams []*Stream, k int) {
	o.streams[k] = append(o.streams[k], int64(len(o.appended)))
	seq := int64(len(o.streams[k]))
	o.appended = append(o.appended, [2]int64{int64(k), seq})
	rec := o.record(k, seq)
	if seq%5 == 0 {
		// The same text in a string of its own, as a respawned worker's
		// session interns it afresh.
		rec.State = strings.Clone(rec.State)
	}
	l.Append(streams[k], streamNS(k), rec)
}

// base is the oldest retained position: whole segments leave, oldest first,
// when a segment beyond the retention is started.
func (o *cursorOracle) base() int64 {
	started := (len(o.appended) + logSegment - 1) / logSegment
	return int64(max(0, started-o.maxSegs)) * logSegment
}

// checkSnapshot requires Snapshot to be the oracle's retained window, record
// for record.
func (o *cursorOracle) checkSnapshot(t *testing.T, l *Log) {
	t.Helper()
	snap, base := l.Snapshot(nil), o.base()
	if want := int64(len(o.appended)) - base; int64(len(snap)) != want {
		t.Fatalf("snapshot holds %d records, oracle retains %d", len(snap), want)
	}
	for i, rec := range snap {
		if want := o.qualified(base + int64(i)); rec != want {
			t.Fatalf("snapshot[%d] is %+v, oracle says %+v", i, rec, want)
		}
	}
}

// checkVocabulary requires each stream's vocabulary to hold every state its
// records used exactly once: a copy of a known text gets the known code.
func (o *cursorOracle) checkVocabulary(t *testing.T, streams []*Stream) {
	t.Helper()
	for k, s := range streams {
		used := make(map[string]bool)
		for seq := range int64(len(o.streams[k])) {
			used[o.record(k, seq+1).State] = true
		}
		if got := s.nstates + len(s.spill); got != len(used) {
			t.Fatalf("stream %d: %d codes for %d distinct states", k, got, len(used))
		}
	}
}

// modelReader is one attached cursor and what the oracle expects of it.
type modelReader struct {
	c      *Cursor
	stream int   // -1: a tail cursor
	want   int64 // next sequence number (stream) or position (tail) to deliver
	missed int64
	every  int // reads once per every appends; 0: only after the last
	buf    []Record
}

// read performs one Read and checks it, record for record, against the
// oracle. over says the reader's source is finished: its stream ended, or — a
// tail cursor — it was closed.
func (r *modelReader) read(t *testing.T, o *cursorOracle, over bool) (done bool) {
	t.Helper()
	var want []Record
	wantSeq := int64(0)
	exhausted := false
	if r.stream >= 0 {
		pos := o.streams[r.stream]
		for r.want <= int64(len(pos)) && pos[r.want-1] < o.base() {
			r.want++
			r.missed++
		}
		wantSeq = r.want
		for seq := r.want; seq <= int64(len(pos)) && len(want) < len(r.buf); seq++ {
			want = append(want, o.record(r.stream, seq))
		}
		exhausted = r.want+int64(len(want)) > int64(len(pos))
	} else {
		if b := o.base(); r.want < b {
			r.missed += b - r.want
			r.want = b
		}
		for p := r.want; p < int64(len(o.appended)) && len(want) < len(r.buf); p++ {
			want = append(want, o.qualified(p))
		}
		// A full batch from a tail cursor never says done; the next Read does.
		exhausted = len(want) < len(r.buf)
	}
	n, seq, done := r.c.Read(r.buf)
	if n != len(want) || seq != wantSeq {
		t.Fatalf("reader of stream %d: Read returned %d records from seq %d, oracle says %d from %d",
			r.stream, n, seq, len(want), wantSeq)
	}
	for i, rec := range r.buf[:n] {
		if rec != want[i] {
			t.Fatalf("reader of stream %d: record %d of the batch is %+v, oracle says %+v", r.stream, i, rec, want[i])
		}
	}
	if d := r.c.Dropped(); d != r.missed {
		t.Fatalf("reader of stream %d: Dropped = %d, oracle counts %d evicted before it got there", r.stream, d, r.missed)
	}
	if done != (over && exhausted) {
		t.Fatalf("reader of stream %d: done = %v with its source over %v and exhausted %v", r.stream, done, over, exhausted)
	}
	r.want += int64(n)
	return done
}

// TestCursorMatchesOracle drives seeded scripts: k job streams interleaved
// (evenly, and in long solo runs) into a log of two or three segments for
// several times its retention, with
// readers attaching at random moments, at random sequence numbers (before the
// stream's first record, inside and outside the retained window, past its
// newest), reading with random batch sizes at random lags — every append,
// rarely enough to fall off the window, or not until the end. Each stream's
// records carry states from a pool larger than its inline vocabulary, in an
// order of its own, every fifth one a separate copy of its text, and a
// detail or none. Every Read must return exactly the oracle's records with
// the oracle's sequence number, every Snapshot taken along the way the
// oracle's window, and Dropped must equal the oracle's count of records
// evicted before the reader reached them; at the end every stream reader is
// done, its stream's Missed is the sum of its readers' losses, and each
// stream's vocabulary holds each state it used once.
func TestCursorMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			k := 1 + rng.Intn(6)
			o := &cursorOracle{maxSegs: 2 + rng.Intn(2), streams: make([][]int64, k)}
			l := NewLog(o.maxSegs * logSegment)
			streams := make([]*Stream, k)
			for i := range streams {
				streams[i] = new(Stream)
			}
			var readers []*modelReader
			attach := func() {
				r := &modelReader{stream: rng.Intn(k+1) - 1, buf: make([]Record, 1+rng.Intn(300)),
					every: []int{1, 3, 50, 700, 0}[rng.Intn(5)]}
				if r.stream < 0 {
					r.c, r.want = Tail(l), int64(len(o.appended))
				} else {
					from := rng.Int63n(int64(len(o.streams[r.stream])) + 3)
					r.c, r.want = streams[r.stream].Cursor(from), max(1, from)
				}
				readers = append(readers, r)
			}
			total := (o.maxSegs+3+rng.Intn(4))*logSegment + rng.Intn(logSegment)
			// Now and then one stream has the log to itself for up to a whole
			// retention, so the others leave the window entirely and come back.
			solo, soloLeft := 0, 0
			for i := 0; i < total; i++ {
				if i == 0 || rng.Intn(400) == 0 {
					attach()
				}
				if soloLeft == 0 && rng.Intn(2000) == 0 {
					solo, soloLeft = rng.Intn(k), rng.Intn(o.maxSegs*logSegment)
				}
				pick := rng.Intn(k)
				if soloLeft > 0 {
					pick = solo
					soloLeft--
				}
				o.append(l, streams, pick)
				for _, r := range readers {
					if r.every > 0 && i%r.every == 0 {
						r.read(t, o, false)
					}
				}
				if i%997 == 0 {
					o.checkSnapshot(t, l)
				}
			}
			o.checkSnapshot(t, l)
			o.checkVocabulary(t, streams)
			if got, want := l.Dropped(), o.base(); got != want {
				t.Fatalf("log dropped %d records, oracle %d", got, want)
			}
			for _, s := range streams {
				s.End()
			}
			missed := make([]int64, k)
			for _, r := range readers {
				if r.stream < 0 {
					r.c.Close()
				}
				for reads := 0; !r.read(t, o, true); reads++ {
					if reads > total {
						t.Fatalf("reader of stream %d never finished", r.stream)
					}
				}
				if r.stream >= 0 {
					missed[r.stream] += r.missed
				}
			}
			for i, s := range streams {
				if s.Missed() != missed[i] {
					t.Fatalf("stream %d Missed = %d, its readers lost %d", i, s.Missed(), missed[i])
				}
			}
		})
	}
}

// TestCursorConcurrentReaders runs the appender against live readers (under
// -race this is the check that a reader needs nothing but the log's own
// lock): per stream one reader ranging over C from the first record and one
// that stalls until the appender is finished, plus a tail reader. No reader
// sees a record out of order or twice, every gap in what it sees is counted
// in Dropped and nothing else is, and records delivered plus records dropped
// account for everything appended.
func TestCursorConcurrentReaders(t *testing.T) {
	const k, total = 4, 6 * logSegment
	l := NewLog(2 * logSegment)
	streams := make([]*Stream, k)
	for i := range streams {
		streams[i] = new(Stream)
	}
	counts := make([]int64, k) // written by the appender, read after it finished
	appended := make(chan struct{})
	var wg sync.WaitGroup

	// follow checks one stream cursor to its end; begin gates the first read.
	follow := func(i int, begin <-chan struct{}) {
		defer wg.Done()
		c := streams[i].Cursor(1)
		defer c.Close()
		<-begin
		next, delivered := int64(1), int64(0)
		var buf [100]Record
		for {
			n, seq, done := c.Read(buf[:])
			if n > 0 && seq < next {
				t.Errorf("stream %d: batch starts at seq %d after %d was delivered", i, seq, next-1)
				return
			}
			for j, rec := range buf[:n] {
				if want := fmt.Sprintf("%d/%d", i, seq+int64(j)); rec.Detail != want {
					t.Errorf("stream %d: record at seq %d is %q", i, seq+int64(j), rec.Detail)
					return
				}
			}
			if n > 0 {
				next = seq + int64(n)
			}
			delivered += int64(n)
			if done {
				<-appended
				if lost := counts[i] - delivered; c.Dropped() != lost {
					t.Errorf("stream %d: %d of %d records delivered, Dropped = %d", i, delivered, counts[i], c.Dropped())
				}
				return
			}
			if n < len(buf) {
				<-c.Ready()
			}
		}
	}
	open := make(chan struct{})
	close(open)
	for i := range streams {
		wg.Add(2)
		go follow(i, open)
		go follow(i, appended)
	}
	tail := Tail(l)
	wg.Add(1)
	go func() {
		defer wg.Done()
		last, delivered := sim.Time(-1), int64(0)
		for rec := range tail.C() {
			if rec.Time <= last {
				t.Errorf("tail: position %d delivered after %d", rec.Time, last)
				return
			}
			last = rec.Time
			delivered++
		}
		if delivered+tail.Dropped() != total {
			t.Errorf("tail: %d delivered + %d dropped of %d appended", delivered, tail.Dropped(), total)
		}
	}()

	rng := rand.New(rand.NewSource(7))
	for pos := 0; pos < total; pos++ {
		i := rng.Intn(k)
		counts[i]++
		l.Append(streams[i], streamNS(i), Record{Time: sim.Time(pos), Entity: "unit.x", State: "S",
			Detail: fmt.Sprintf("%d/%d", i, counts[i])})
	}
	for _, s := range streams {
		s.End()
	}
	close(appended)
	tail.Close()
	wg.Wait()
}
