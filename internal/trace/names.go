package trace

// Entity is a record's entity as its producer keeps it: a name cut from a
// longer string the producer holds for the job (an arena: its units' ids, a
// pilot launch's names), an entry of a Names table, or a string of its own.
// A Log stores the first two as a 32-bit code against the arena or the
// table, which its stream keeps, so a stored record holds no string.
type Entity struct {
	arena  string // a carved name is arena[off : off+n]
	names  *Names // an interned name is entry off of names
	off, n uint32
}

// Carved names arena[off : off+n], a name cut from a string its producer
// holds for as long as the job.
func Carved(arena string, off, n int) Entity {
	return Entity{arena: arena, off: uint32(off), n: uint32(n)}
}

// Named is s as an entity of its own: the log codes it as an arena of one
// name while its stream has room, and stores it out of line after that.
func Named(s string) Entity { return Entity{arena: s, n: uint32(len(s))} }

// String returns the entity's name.
func (e Entity) String() string {
	if e.names != nil {
		return e.names.at(e.off)
	}
	return e.arena[e.off : e.off+e.n]
}

// The entities every job shares: the execution manager's and the chaos
// injector's.
var (
	EM    = Entity{names: &static, off: 0}
	Chaos = Entity{names: &static, off: 1}
)

var static = Names{chunks: [namesCap / namesChunk]*[namesChunk]string{{"em", "chaos"}}, n: 2}

const (
	namesChunk = 256
	namesCap   = 4096
)

// Names is an append-only table of up to 4 096 entity names that many jobs'
// records share, such as a worker session's intern table: a Log codes an
// entity from it as its index. Add belongs to one goroutine. An entry never
// changes once added, and the table's storage never moves, so a log that
// was handed an entry's entity reads the entry without the writer's help.
type Names struct {
	chunks [namesCap / namesChunk]*[namesChunk]string
	n      int
}

// Add appends s and returns its entity; ok is false when the table is full.
func (t *Names) Add(s string) (e Entity, ok bool) {
	if t.n == namesCap {
		return Entity{}, false
	}
	c := &t.chunks[t.n/namesChunk]
	if *c == nil {
		*c = new([namesChunk]string)
	}
	(*c)[t.n%namesChunk] = s
	t.n++
	return Entity{names: t, off: uint32(t.n - 1)}, true
}

func (t *Names) at(i uint32) string { return t.chunks[i/namesChunk][i%namesChunk] }
