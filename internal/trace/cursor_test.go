package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"aimes/internal/sim"
)

// The cursor's reference model: every append in order, and from it — by brute
// force over positions — what a reader at a given point must be handed. The
// log's own bookkeeping (thread links, per-stream eviction counts, the ring,
// the streams' vocabularies, the segments' side tables) is nowhere in it.
type cursorOracle struct {
	maxSegs  int
	appended [][2]int64    // by position: the stream and the sequence number of each append
	streams  [][]int64     // per stream, the position of each of its records (seq-1 → position)
	pools    []oraclePools // per stream, what its records draw from
}

// oraclePools sizes the pools one stream's records draw from: the first
// states of oracleStates and the first details of oracleDetails, or with
// details < 0 a detail of the record's own.
type oraclePools struct{ states, details int }

// drawPools picks a stream's pools: some fit its inline vocabularies, some
// fill one exactly, some overflow one or both by one or by many, some repeat
// a few details, some carry none or a detail per record.
func drawPools(rng *rand.Rand) oraclePools {
	var s Stream
	states := []int{1, 5, len(s.states), len(s.states) + 1, len(oracleStates)}
	details := []int{0, 3, len(s.details), len(s.details) + 1, len(oracleDetails), -1}
	return oraclePools{states: states[rng.Intn(len(states))], details: details[rng.Intn(len(details))]}
}

func streamNS(k int) string { return fmt.Sprintf("s0-j%d", k) }

// oracleStates and oracleDetails are the pools the streams draw from: larger
// than a stream's inline vocabularies, so a stream that uses all of one
// stores records out of line.
var (
	oracleStates  = oraclePool("STATE_%02d", 19)
	oracleDetails = oraclePool("detail %d", 25)
)

func oraclePool(format string, n int) []string {
	pool := make([]string, n)
	for i := range pool {
		pool[i] = fmt.Sprintf(format, i)
	}
	return pool
}

// record is what stream k's seq-th record looks like: its time is its log
// position, so a record delivered out of place cannot pass for another. A
// stream walks its state pool in steps of k+1, in an order of its own, so
// one code stands for different states in different streams; one record in
// three has no detail, the others one from the stream's detail pool — the
// j-th of them the pool's 7j-th, so the detail vocabulary fills in an order
// of its own and meets the whole pool — or one of their own.
func (o *cursorOracle) record(k int, seq int64) Record {
	p := o.pools[k]
	rec := Record{Time: sim.Time(o.streams[k][seq-1]), Entity: "unit.x",
		State: oracleStates[seq*int64(k+1)%int64(p.states)]}
	switch {
	case seq%3 == 0 || p.details == 0:
	case p.details < 0:
		rec.Detail = fmt.Sprintf("%d/%d", k, seq)
	default:
		rec.Detail = oracleDetails[(seq-seq/3)*7%int64(p.details)]
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
		rec.State, rec.Detail = strings.Clone(rec.State), strings.Clone(rec.Detail)
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

// checkVocabulary requires each stream's inline vocabularies to be the first
// states and non-empty details its records used, in order of first use, each
// once — a copy of a known text gets the known code — as many as fit; and
// each retained out-of-line record to be one whose state or detail misses a
// full vocabulary, stored as the next pair of its segment's side table,
// which holds nothing else. It counts the retained records by the path that
// coded them.
func (o *cursorOracle) checkVocabulary(t *testing.T, l *Log, streams []*Stream) (paths codingPaths) {
	t.Helper()
	firstUsed := func(vocab []string, text string) []string {
		if text == "" || slices.Contains(vocab, text) {
			return vocab
		}
		return append(vocab, text)
	}
	for k, s := range streams {
		var states, details []string
		for seq := range int64(len(o.streams[k])) {
			rec := o.record(k, seq+1)
			states, details = firstUsed(states, rec.State), firstUsed(details, rec.Detail)
		}
		for _, v := range []struct {
			what         string
			inline, used []string
			room         int
		}{
			{"states", s.states[:s.nstates], states, len(s.states)},
			{"details", s.details[:s.ndetails], details, len(s.details)},
		} {
			if want := v.used[:min(len(v.used), v.room)]; !slices.Equal(v.inline, want) {
				t.Fatalf("stream %d: inline %s %q, its records first used %q", k, v.what, v.inline, want)
			}
		}
	}
	for pos := o.base(); pos < int64(len(o.appended)); pos += logSegment {
		g := &l.segs[pos/logSegment%int64(l.maxSegs)]
		next := uint32(0)
		for i := range min(logSegment, int64(len(o.appended))-pos) {
			e := &g.entries[i]
			if e.code&outOfLine == 0 {
				paths[min(1, e.code>>detailShift)]++
				continue
			}
			s, p := e.s, g.side[e.code&^outOfLine]
			stateMiss := int(s.nstates) == len(s.states) && !slices.Contains(s.states[:], p.state)
			detailMiss := p.detail != "" && int(s.ndetails) == len(s.details) && !slices.Contains(s.details[:], p.detail)
			if stateMiss {
				paths[2]++
			}
			if detailMiss {
				paths[3]++
			}
			if !stateMiss && !detailMiss {
				t.Fatalf("position %d: (%q, %q) is out of line, but its stream's vocabularies hold it or have room", pos+i, p.state, p.detail)
			}
			if e.code&^outOfLine != next {
				t.Fatalf("position %d: out-of-line pair %d of its segment, want %d", pos+i, e.code&^outOfLine, next)
			}
			next++
		}
		if int(next) != len(g.side) {
			t.Fatalf("segment at %d: side table of %d pairs for %d out-of-line records", pos, len(g.side), next)
		}
	}
	return paths
}

// codingPaths counts records coded inline without a detail, inline with one,
// out of line for their state, and out of line for their detail.
type codingPaths [4]int

func (p *codingPaths) add(q codingPaths) {
	for i := range p {
		p[i] += q[i]
	}
}

// modelReader is one attached cursor and what the oracle expects of it.
type modelReader struct {
	c         *Cursor
	stream    int   // -1: a tail cursor
	from      int64 // a stream cursor's first sequence number
	want      int64 // next sequence number (stream) or position (tail) to deliver
	missed    int64
	delivered int64
	every     int // reads once per every appends; 0: only after the last
	buf       []Record
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
	r.delivered += int64(n)
	if done && r.stream >= 0 {
		// Every record of the stream from the reader's first on was either
		// delivered or counted dropped.
		if owed := max(0, int64(len(o.streams[r.stream]))+1-r.from); r.delivered+r.c.Dropped() != owed {
			t.Fatalf("reader of stream %d from seq %d: %d delivered + %d dropped, its stream appended %d from there",
				r.stream, r.from, r.delivered, r.c.Dropped(), owed)
		}
	}
	return done
}

// TestCursorMatchesOracle drives seeded scripts: k job streams interleaved
// (evenly, and in long solo runs) into a log of two or three segments for
// several times its retention, with
// readers attaching at random moments, at random sequence numbers (before the
// stream's first record, inside and outside the retained window, past its
// newest), reading with random batch sizes at random lags — every append,
// rarely enough to fall off the window, or not until the end. Each stream's
// records draw states and details from pools of their own sizes — within its
// inline vocabularies or beyond them, no detail, a few repeated, one per
// record — in an order of their own, every fifth one a separate copy of its
// text. Every Read must return exactly the oracle's records with the
// oracle's sequence number, every Snapshot taken along the way the oracle's
// window, and Dropped must equal the oracle's count of records evicted
// before the reader reached them; the vocabularies and side tables must
// hold what checkVocabulary says, along the way and at the end; every stream
// reader ends done, having delivered or dropped each record of its stream
// from its first on, and its stream's Missed is the sum of its readers'
// losses.
func TestCursorMatchesOracle(t *testing.T) {
	var covered codingPaths
	defer func() {
		t.Logf("retained records at the end by coding path: %v", covered)
		for i, n := range covered {
			if n == 0 && !t.Failed() {
				t.Errorf("no seed left a record of coding path %d in the log at its end (paths: %v)", i, covered)
			}
		}
	}()
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			k := 1 + rng.Intn(6)
			o := &cursorOracle{maxSegs: 2 + rng.Intn(2), streams: make([][]int64, k), pools: make([]oraclePools, k)}
			for i := range o.pools {
				o.pools[i] = drawPools(rng)
			}
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
					r.c, r.from = streams[r.stream].Cursor(from), max(1, from)
					r.want = r.from
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
					o.checkVocabulary(t, l, streams)
				}
			}
			o.checkSnapshot(t, l)
			covered.add(o.checkVocabulary(t, l, streams))
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

// fuzzTexts is the pool FuzzLogRecords repeats states and details from.
var fuzzTexts = []string{"", "NEW", "DONE", "EXECUTING", "STAGING_INPUT", "pilot.0000, 4096 bytes", "cores=8 walltime=1h0m0s"}

// FuzzLogRecords appends records a script describes to three streams of a
// log that retains two segments. Each step of the script is one byte — the
// stream, and how many times in a row (1 to 128, so a short script evicts)
// the record is appended — then its state and its detail, each one byte: a
// text from a small pool ("" among them), one of 64 short ones, the next
// bytes of the script, or a long one; a script stops once four retentions
// are appended. Snapshot must return the retained records byte for byte;
// per stream, a cursor reading after every step must return all of them,
// and one attached at the end the retained ones, the rest counted dropped.
func FuzzLogRecords(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 4, 8, 2, 3, 3})
	f.Add([]byte{0x20, 0x06, 0x04, 'a', 'b', 0x41, 0x06, 0x00, 0x02, 0x0c, 0x01})
	var steps []byte
	for i := range 60 {
		steps = append(steps, byte(0xe0+i%3), byte(1+4*i%256), byte(4*(i%7)))
	}
	f.Add(steps) // 60 × 128 records: many distinct states, a few details, several evictions
	steps = nil
	for i := range 80 {
		detail := byte(1 + 4*i%256) // a short one of its own, or every third step a long one
		if i%3 == 0 {
			detail = byte(3 + 4*(i%5))
		}
		steps = append(steps, byte(0xa0+i%3), 0x04, detail)
	}
	f.Add(steps) // 80 × 32 records: one state, a detail per step
	f.Fuzz(func(t *testing.T, script []byte) {
		const retain = 2 * logSegment
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		text := func() string {
			c := next()
			switch c % 4 {
			case 0:
				return fuzzTexts[int(c/4)%len(fuzzTexts)]
			case 1:
				return fmt.Sprintf("d%d", c/4)
			case 2:
				n := min(int(c/4), len(script))
				s := string(script[:n])
				script = script[n:]
				return s
			default:
				return strings.Repeat("long", 64+int(c/4))
			}
		}
		l := NewLog(retain)
		var (
			streams  [3]Stream
			keepUp   [3]*Cursor
			read     [3][]Record // what keepUp delivered
			appended [3][]Record // raw, as each stream's cursors hand them out
			all      []Record    // qualified, as Snapshot hands them out
			buf      [64]Record
		)
		for k := range streams {
			keepUp[k] = streams[k].Cursor(1)
		}
		for len(script) > 0 && len(all) < 4*retain { // enough to evict; the rest of a long script is ignored
			step := next()
			k, reps := int(step%3), 1<<(step>>5)
			state, detail := text(), text()
			for range reps {
				rec := Record{Time: sim.Time(len(all)), Entity: "unit.x", State: state, Detail: detail}
				l.Append(&streams[k], streamNS(k), rec)
				appended[k] = append(appended[k], rec)
				rec.Entity = QualifyEntity(rec.Entity, streamNS(k))
				all = append(all, rec)
			}
			for n := len(buf); n == len(buf); {
				n, _, _ = keepUp[k].Read(buf[:])
				read[k] = append(read[k], buf[:n]...)
			}
		}
		base := 0
		if started := (len(all) + logSegment - 1) / logSegment; started*logSegment > retain {
			base = started*logSegment - retain
		}
		if got := l.Snapshot(nil); !slices.Equal(got, all[base:]) {
			t.Fatalf("snapshot holds %d records, want the %d from position %d", len(got), len(all)-base, base)
		}
		for k := range streams {
			if !slices.Equal(read[k], appended[k]) || keepUp[k].Dropped() != 0 {
				t.Fatalf("stream %d: a cursor that kept up read %d records, dropped %d, of %d", k, len(read[k]), keepUp[k].Dropped(), len(appended[k]))
			}
			late := streams[k].Cursor(1)
			streams[k].End()
			var got []Record
			for rec := range late.C() {
				got = append(got, rec)
			}
			evicted := 0
			for evicted < len(appended[k]) && int(appended[k][evicted].Time) < base {
				evicted++
			}
			if !slices.Equal(got, appended[k][evicted:]) || late.Dropped() != int64(evicted) {
				t.Fatalf("stream %d: a late cursor read %d records and dropped %d, want %d and %d", k, len(got), late.Dropped(), len(appended[k])-evicted, evicted)
			}
		}
	})
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
