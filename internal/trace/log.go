package trace

import "slices"

// logSegment is the number of entries in one Log segment. A full segment is
// never touched again until it is evicted, so appends never re-copy.
const logSegment = 1024

// entry is one stored record and the namespace of the job that produced it.
// The namespace is one shared string per job, so it costs a string header,
// not a copy.
type entry struct {
	rec Record
	ns  string
}

// Log is an append-only, retention-bounded store of raw (unqualified) trace
// records, each with its job's namespace. It keeps the most recent records
// in fixed-size segments; once the retention is reached the oldest segment
// is evicted whole and its records are counted as dropped. Entities are
// qualified (QualifyEntity) when the log is read, not when it is written.
// A Log is not safe for concurrent use: its owner serializes Append with
// every reader.
type Log struct {
	segs    [][]entry // a ring once it holds maxSegs; all but the tail are full
	tail    int       // index of the newest segment; the oldest follows it
	maxSegs int
	dropped int64
}

// NewLog returns an empty log retaining the most recent retain records,
// rounded up to whole segments.
func NewLog(retain int) *Log {
	return &Log{maxSegs: max(1, (retain+logSegment-1)/logSegment)}
}

// Append stores one record of the job with namespace ns. It allocates only
// when it opens a new segment below the retention; at the retention the
// oldest segment is evicted and its memory becomes the new tail.
func (l *Log) Append(rec Record, ns string) {
	if len(l.segs) == 0 || len(l.segs[l.tail]) == logSegment {
		if len(l.segs) < l.maxSegs {
			l.segs = append(l.segs, make([]entry, 0, logSegment))
			l.tail = len(l.segs) - 1
		} else {
			l.tail = (l.tail + 1) % len(l.segs)
			l.segs[l.tail] = l.segs[l.tail][:0]
			l.dropped += logSegment
		}
	}
	l.segs[l.tail] = append(l.segs[l.tail], entry{rec, ns})
}

// Len reports the number of records retained.
func (l *Log) Len() int {
	if len(l.segs) == 0 {
		return 0
	}
	return (len(l.segs)-1)*logSegment + len(l.segs[l.tail])
}

// Dropped reports how many records were evicted to keep the retention.
func (l *Log) Dropped() int64 { return l.dropped }

// Snapshot appends the retained records to dst, oldest first, each entity
// qualified by its job's namespace, and returns the extended slice.
func (l *Log) Snapshot(dst []Record) []Record {
	dst = slices.Grow(dst, l.Len())
	for i := range l.segs {
		for _, e := range l.segs[(l.tail+1+i)%len(l.segs)] {
			e.rec.Entity = QualifyEntity(e.rec.Entity, e.ns)
			dst = append(dst, e.rec)
		}
	}
	return dst
}
