package trace

import (
	"iter"
	"slices"
	"sync"
	"sync/atomic"
)

// logSegment is the number of entries in one Log segment. A full segment is
// never touched again until it is evicted, so appends never re-copy.
const logSegment = 1024

// entry is one stored record, the stream (job) that produced it, and the log
// position of that stream's next record (0 while it is the newest): the thread
// a stream cursor follows, so it never looks at another job's records.
type entry struct {
	rec  Record
	s    *Stream
	next int64
}

// Log is an append-only, retention-bounded store of raw (unqualified) trace
// records — the one copy of every record of one shard. It keeps the most
// recent records in fixed-size segments; once the retention is reached the
// oldest segment is evicted whole and its records are counted as dropped.
// Entities are qualified (QualifyEntity) when the log is read, not when it is
// written. Every consumer is a Cursor. A Log is safe for concurrent use: it
// holds its own lock for one append or for copying one batch out.
type Log struct {
	mu      sync.Mutex
	segs    [][]entry // a ring once it holds maxSegs; position p is segs[p/logSegment%maxSegs][p%logSegment]
	maxSegs int
	base    int64     // position of the oldest retained record = records evicted
	end     int64     // position the next record gets
	readers []*Cursor // Tail cursors, woken by every append
}

// NewLog returns an empty log retaining the most recent retain records,
// rounded up to whole segments.
func NewLog(retain int) *Log {
	return &Log{maxSegs: max(1, (retain+logSegment-1)/logSegment)}
}

// Stream is one job's thread through a Log: its records carry dense 1-based
// sequence numbers and are linked in append order. It binds to the log of its
// first record; cursors may attach before that (a job still queued) and after
// End (replay, while the log retains it). The zero Stream is ready to use.
type Stream struct {
	// mu guards the attachment state, which exists before the stream has a
	// log. It is never held together with the log's lock.
	mu      sync.Mutex
	log     *Log
	ended   bool
	readers []*Cursor

	missed atomic.Int64 // records its cursors found evicted, all together

	// Guarded by log.mu.
	ns      string
	n       int64 // records appended; the newest has sequence number n
	evicted int64 // of those, no longer retained; the oldest retained is number evicted+1
	first   int64 // position of record evicted+1 (meaningful while evicted < n)
	last    int64 // position of record n
}

// End marks the stream complete and wakes its cursors, which report done once
// they have delivered the last record.
func (s *Stream) End() {
	s.mu.Lock()
	s.ended = true
	wake(s.readers...)
	s.mu.Unlock()
}

// Missed reports how many of the stream's records its cursors, all together,
// found evicted before they could deliver them.
func (s *Stream) Missed() int64 { return s.missed.Load() }

// wake nudges cursors without blocking: a wake channel holds one token, and a
// cursor that already has one will read this append too.
func wake(readers ...*Cursor) {
	for _, c := range readers {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

func (l *Log) at(pos int64) *entry {
	return &l.segs[pos/logSegment%int64(l.maxSegs)][pos%logSegment]
}

// Append stores one record of stream s, whose job has namespace ns, and wakes
// the cursors of s and the log's Tail cursors; it never waits for one. It
// allocates only when it opens a new segment below the retention; at the
// retention the oldest segment is evicted and its memory becomes the new tail.
func (l *Log) Append(s *Stream, ns string, rec Record) {
	l.mu.Lock()
	pos := l.end
	slot := int(pos / logSegment % int64(l.maxSegs))
	if pos%logSegment == 0 {
		if slot == len(l.segs) {
			l.segs = append(l.segs, make([]entry, logSegment))
		} else {
			// Evict the oldest segment. Each stream's records leave in
			// order, so an evicted entry is its stream's oldest retained one.
			for i := range l.segs[slot] {
				e := &l.segs[slot][i]
				e.s.first = e.next
				e.s.evicted++
			}
			l.base += logSegment
		}
	}
	s.ns = ns
	if s.evicted == s.n {
		s.first = pos
	} else {
		l.at(s.last).next = pos
	}
	s.n++
	s.last = pos
	l.segs[slot][pos%logSegment] = entry{rec: rec, s: s}
	l.end++
	wake(l.readers...)
	l.mu.Unlock()

	s.mu.Lock()
	s.log = l
	wake(s.readers...)
	s.mu.Unlock()
}

// Dropped reports how many records were evicted to keep the retention.
func (l *Log) Dropped() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// Snapshot appends the retained records to dst, oldest first, each entity
// qualified by its job's namespace, and returns the extended slice.
func (l *Log) Snapshot(dst []Record) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	dst = slices.Grow(dst, int(l.end-l.base))
	for pos := l.base; pos < l.end; pos++ {
		dst = append(dst, l.at(pos).qualified())
	}
	return dst
}

func (e *entry) qualified() Record {
	rec := e.rec
	rec.Entity = QualifyEntity(rec.Entity, e.s.ns)
	return rec
}

// Cursor is a reader's position in the stored trace: in one job's Stream
// (Stream.Cursor — raw entities, dense sequence numbers, done when the job has
// ended) or at the tail of one or more Logs (Tail — every record, entities
// qualified, done once closed). It holds no records: Read copies a batch out
// of the log, Ready is the wake-up when its stream or logs append, Dropped
// counts exactly the records evicted before the cursor reached them. Read, C
// and Ready belong to one goroutine; Close and Dropped may be called from any.
type Cursor struct {
	wake    chan struct{} // one token: "appended, ended or closed since you last looked"
	closed  atomic.Bool
	dropped atomic.Int64

	// A stream cursor: seq is the next sequence number to deliver, prev the
	// position of record seq-1 if this cursor delivered it, else -1.
	s    *Stream
	seq  int64
	prev int64

	// A tail cursor: the next position in each log.
	logs []*Log
	pos  []int64
}

// Cursor attaches a cursor that delivers the stream's records from sequence
// number from on (values below 1 mean 1, the beginning).
func (s *Stream) Cursor(from int64) *Cursor {
	c := &Cursor{wake: make(chan struct{}, 1), s: s, seq: max(1, from), prev: -1}
	s.mu.Lock()
	s.readers = append(s.readers, c)
	s.mu.Unlock()
	return c
}

// Tail attaches a cursor that delivers every record appended to logs from
// now on; records of different logs interleave in the order Read finds them.
func Tail(logs ...*Log) *Cursor {
	c := &Cursor{wake: make(chan struct{}, 1), logs: logs, pos: make([]int64, len(logs))}
	for i, l := range logs {
		l.mu.Lock()
		c.pos[i] = l.end
		l.readers = append(l.readers, c)
		l.mu.Unlock()
	}
	return c
}

// Close detaches the cursor and wakes its reader. Records already appended
// can still be Read; after them Read reports done. Idempotent.
func (c *Cursor) Close() {
	if c.closed.Swap(true) {
		return
	}
	is := func(o *Cursor) bool { return o == c }
	if s := c.s; s != nil {
		s.mu.Lock()
		s.readers = slices.DeleteFunc(s.readers, is)
		s.mu.Unlock()
	}
	for _, l := range c.logs {
		l.mu.Lock()
		l.readers = slices.DeleteFunc(l.readers, is)
		l.mu.Unlock()
	}
	wake(c)
}

// Ready receives after the cursor's stream or logs appended, its stream
// ended, or it was closed: the moment to Read again. A receive may be stale
// (Read then returns nothing); an append is never missed.
func (c *Cursor) Ready() <-chan struct{} { return c.wake }

// Dropped reports how many records this cursor lost to the log's retention.
func (c *Cursor) Dropped() int64 { return c.dropped.Load() }

// Read copies the next records into buf without blocking and returns how
// many. For a stream cursor seq is the sequence number of buf[0] (the rest
// follow densely). Records lost to eviction are added to Dropped before the
// records that follow them are returned. done reports that no record will
// ever follow buf[:n].
func (c *Cursor) Read(buf []Record) (n int, seq int64, done bool) {
	closed := c.closed.Load() // before reading: whatever was appended before Close is still delivered
	if c.s != nil {
		return c.readStream(buf, closed)
	}
	for i, l := range c.logs {
		n += c.readLog(l, &c.pos[i], buf[n:])
	}
	return n, 0, closed && n < len(buf) // a full batch may have left records behind
}

func (c *Cursor) readLog(l *Log, pos *int64, buf []Record) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if *pos < l.base {
		c.dropped.Add(l.base - *pos)
		*pos = l.base
	}
	n := int(min(int64(len(buf)), l.end-*pos))
	for k := range buf[:n] {
		buf[k] = l.at(*pos + int64(k)).qualified()
	}
	*pos += int64(n)
	return n
}

func (c *Cursor) readStream(buf []Record, closed bool) (n int, seq int64, done bool) {
	s := c.s
	s.mu.Lock()
	l, ended := s.log, s.ended
	s.mu.Unlock()
	if l == nil {
		return 0, c.seq, ended || closed
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if lost := s.evicted + 1 - c.seq; lost > 0 {
		c.dropped.Add(lost)
		s.missed.Add(lost)
		c.seq += lost
	}
	seq = c.seq
	n = int(max(0, min(int64(len(buf)), s.n+1-c.seq)))
	if n > 0 {
		// Find record c.seq: the successor of the last one delivered while
		// that one is retained; otherwise — attaching mid-stream, or having
		// fallen off the window — along the thread from the oldest retained.
		pos, k := s.first, s.evicted+1
		if c.prev >= 0 && c.seq-1 > s.evicted {
			pos, k = l.at(c.prev).next, c.seq
		}
		for ; k < c.seq; k++ {
			pos = l.at(pos).next
		}
		for k := range buf[:n] {
			e := l.at(pos)
			buf[k] = e.rec
			c.prev, pos = pos, e.next
		}
		c.seq += int64(n)
	}
	return n, seq, (ended || closed) && c.seq > s.n
}

// C ranges over the cursor's records, blocking in Ready between batches,
// until the cursor is done. Breaking out of the loop leaves it attached.
func (c *Cursor) C() iter.Seq[Record] {
	return func(yield func(Record) bool) {
		var buf [64]Record
		for {
			n, _, done := c.Read(buf[:])
			for _, rec := range buf[:n] {
				if !yield(rec) {
					return
				}
			}
			if done {
				return
			}
			if n < len(buf) {
				<-c.Ready()
			}
		}
	}
}
