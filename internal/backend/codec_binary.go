package backend

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"aimes/internal/core"
	"aimes/internal/sim"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// binaryCodec is the wire's one data codec: the JSON handshake agrees on
// its layout version (binaryWire), and every frame after the init response
// is written in it. Every per-job payload has a native layout — a
// Step response's events, the descriptor with its workload, the strategy,
// the strategy config, the report: varints, length-prefixed strings, floats
// as their 8 bytes of bits, and lists and maps as their count plus one (0
// is nil, so nil and empty both survive) with map entries sorted. Only
// chaos events and the rare AdaptiveConfig ride as length-prefixed JSON
// blobs. When the job payloads were JSON blobs too, a 512-task descriptor
// cost 0.37 ms to encode and 2.25 ms and 3 616 allocations to decode
// (128 KB); in this layout it is 0.04 ms, and 0.12 ms and 7 allocations
// (46 KB), on a 2-CPU x86-64 Linux machine.
// FuzzCodecRoundTrip holds a round trip to the value that went in.
//
// A request is
//
//	op, id, flags, max, key, reason, [descriptor], [workload], [config], [chaos]
//
// A response's events carry each string once. The layout of a response is
//
//	id, err, diag, flags, fired, [enacted], [strategy], event count
//	string table: count, then each distinct string of the events
//	events:       kind, key, namespace, bits, [record], [report]
//	record:       time delta, entity, state, detail
//
// where a kind is kindTrace, whose event always has a record, or kindDone;
// namespace, entity, state and detail are uvarint indices into the frame's
// table (0 is the empty string, 1 its first entry) and a record's
// time is a zigzag varint delta from the frame's previous record (from 0).
// The table is scoped to the frame, never to a stream, so every frame
// decodes on its own: the parent dispatches a frame a chunk at a time, and a
// nested call may read other frames between two of its chunks. In the
// 512-record frame BenchmarkStepFrameDecode records, a record takes 18.1
// bytes: 8.5 for its event and 9.6 of table.
//
// A binaryCodec instance is stateful, so each session side owns a fresh
// instance. The host builds each response's table in a map it clears
// between frames. The parent resolves a table once per frame, through an
// intern table of entity, state, detail, namespace and resource strings
// (a shard emits the same few dozen of them millions of times), so
// dispatching a record costs no hash lookup; a string new to the session
// is copied into the codec's arena, 4 KB chunks that only ever append, not
// allocated on its own, and listed in the session's trace.Names, so a
// record's entity reaches the shard's log as its index there. On the parent
// every use of the codec (a response's fields, a chunk of its events) runs
// under the session's lock. Strings unique to one payload (a workload's task
// and file names, a report's pilot IDs) are carved from one arena per
// payload instead, and nothing a decode returns aliases the frame.
type binaryCodec struct {
	strings map[string]trace.Entity
	names   *trace.Names    // the intern table's strings, in order
	arena   strings.Builder // and their bytes, a chunk at a time

	// The host's side: the table of the response being encoded (index
	// maps a string to its entry, 1-based) and its events' bytes.
	index map[string]uint64
	table []string
	body  []byte
}

func newBinaryCodec() *binaryCodec {
	return &binaryCodec{strings: make(map[string]trace.Entity, 64), names: new(trace.Names)}
}

// arenaChunk is the size of one chunk of the intern table's arena.
const arenaChunk = 4 << 10

// intern returns a canonical string for b without allocating on a hit.
func (c *binaryCodec) intern(b []byte) string { return c.name(b).String() }

// name returns b's entry in the intern table (the zero Entity, "", for no
// bytes) without allocating on a hit (the map lookup keyed by string(b)
// does not materialize the key). A miss copies b into the arena; a full
// table is replaced by an empty one rather than grown without bound.
func (c *binaryCodec) name(b []byte) trace.Entity {
	if len(b) == 0 {
		return trace.Entity{}
	}
	if e, ok := c.strings[string(b)]; ok {
		return e
	}
	if c.arena.Cap()-c.arena.Len() < len(b) {
		c.arena = strings.Builder{}
		c.arena.Grow(max(arenaChunk, len(b)))
	}
	start := c.arena.Len()
	c.arena.Write(b)
	s := c.arena.String()[start:]
	e, ok := c.names.Add(s)
	if !ok {
		c.strings, c.names = make(map[string]trace.Entity, 64), new(trace.Names)
		e, _ = c.names.Add(s)
	}
	c.strings[s] = e
	return e
}

// ref returns s's index in the table of the response being encoded,
// adding it on first use.
func (c *binaryCodec) ref(s string) uint64 {
	if s == "" {
		return 0
	}
	if i, ok := c.index[s]; ok {
		return i
	}
	c.table = append(c.table, s)
	i := uint64(len(c.table))
	c.index[s] = i
	return i
}

// Presence bits for request pointer fields.
const (
	reqHasDesc = 1 << iota
	reqHasWorkload
	reqHasConfig
	reqHasChaos
)

// Presence/flag bits for response fields.
const (
	respDrained = 1 << iota
	respHasEnacted
	respHasStrategy
)

// Presence bits for event pointer fields.
const (
	evHasRec = 1 << iota
	evHasReport
)

func appendWireString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendWireJSON appends v as a length-prefixed JSON blob.
func appendWireJSON(dst []byte, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return dst, violation{fmt.Errorf("backend: encoding frame: %w", err)}
	}
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...), nil
}

func appendInts(dst []byte, vs ...int64) []byte {
	for _, v := range vs {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// appendFloats appends each value's bits, refusing NaN and ±Inf as
// json.Marshal does.
func appendFloats(dst []byte, fs ...float64) ([]byte, error) {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, violation{fmt.Errorf("backend: encoding frame: unsupported value %v", f)}
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst, nil
}

// flag is a presence or boolean byte.
func flag(ok bool) byte {
	if ok {
		return 1
	}
	return 0
}

// appendCount appends a list's length plus one, or 0 for a nil list.
func appendCount(dst []byte, n int, isNil bool) []byte {
	if isNil {
		return append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(n)+1)
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = appendCount(dst, len(ss), ss == nil)
	for _, s := range ss {
		dst = appendWireString(dst, s)
	}
	return dst
}

// appendMap appends m's entries in key order, so equal maps encode alike.
func appendMap[V ~int | ~int64](dst []byte, m map[string]V) []byte {
	dst = appendCount(dst, len(m), m == nil)
	var stack [16]string
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = appendWireString(dst, k)
		dst = binary.AppendVarint(dst, int64(m[k]))
	}
	return dst
}

func appendFiles(dst []byte, fs []skeleton.File) []byte {
	dst = appendCount(dst, len(fs), fs == nil)
	for _, f := range fs {
		dst = appendWireString(dst, f.Name)
		dst = binary.AppendVarint(dst, f.Bytes)
		dst = appendWireString(dst, f.Producer)
	}
	return dst
}

// appendWorkload leads with what the reader must reserve: the task count,
// the files and the strings (stages and deps) across all tasks, and the
// bytes of every string.
func appendWorkload(dst []byte, w *skeleton.Workload) []byte {
	files, strs, text := 0, len(w.Stages), len(w.Name)
	for _, s := range w.Stages {
		text += len(s)
	}
	for i := range w.Tasks {
		t := &w.Tasks[i]
		files += len(t.Inputs) + len(t.Outputs)
		strs += len(t.Deps)
		text += len(t.ID) + len(t.Stage)
		for _, f := range t.Inputs {
			text += len(f.Name) + len(f.Producer)
		}
		for _, f := range t.Outputs {
			text += len(f.Name) + len(f.Producer)
		}
		for _, d := range t.Deps {
			text += len(d)
		}
	}
	dst = appendCount(dst, len(w.Tasks), w.Tasks == nil)
	for _, n := range [...]int{files, strs, text} {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	dst = appendWireString(dst, w.Name)
	dst = appendStrings(dst, w.Stages)
	for i := range w.Tasks {
		t := &w.Tasks[i]
		dst = appendWireString(dst, t.ID)
		dst = appendWireString(dst, t.Stage)
		dst = appendInts(dst, int64(t.Index), int64(t.Cores), int64(t.Duration))
		dst = appendFiles(dst, t.Inputs)
		dst = appendFiles(dst, t.Outputs)
		dst = appendStrings(dst, t.Deps)
	}
	return dst
}

func appendStrategy(dst []byte, s *core.Strategy) []byte {
	dst = appendInts(dst, int64(s.Binding), int64(s.Scheduler), int64(s.Pilots))
	dst = appendStrings(dst, s.Resources)
	return appendInts(dst, int64(s.PilotCores), int64(s.PilotWalltime), int64(s.EstTx), int64(s.EstTs), int64(s.EstTrp))
}

func appendStrategyConfig(dst []byte, cfg *core.StrategyConfig) []byte {
	dst = appendInts(dst, int64(cfg.Binding), int64(cfg.Scheduler), int64(cfg.Pilots), int64(flag(cfg.AutoPilots)), int64(cfg.Selection))
	return appendStrings(dst, cfg.FixedResources)
}

// appendReport leads with the bytes of its pilot IDs, the report's arena.
func appendReport(dst []byte, r *core.Report) ([]byte, error) {
	text := 0
	for id := range r.PilotWaits {
		text += len(id)
	}
	dst = binary.AppendUvarint(dst, uint64(text))
	dst = appendStrategy(dst, &r.Strategy)
	dst = appendInts(dst, int64(r.TTC), int64(r.Tw), int64(r.Tx), int64(r.Ts),
		int64(r.UnitsDone), int64(r.UnitsFailed), int64(r.UnitsCanceled), int64(r.TotalRestarts),
		int64(r.PilotsActivated), int64(r.ExtraPilots))
	dst = appendMap(dst, r.PilotWaits)
	dst = appendMap(dst, r.UnitsByResource)
	return appendFloats(dst, r.Throughput, r.CoreHours, r.BusyCoreHours, r.Efficiency)
}

func appendDescriptor(dst []byte, d *Descriptor) ([]byte, error) {
	dst = appendInts(dst, int64(d.Key), int64(d.MigratedFrom))
	dst = append(dst, flag(d.Workload != nil), flag(d.Strategy != nil), flag(d.Adaptive != nil))
	if d.Workload != nil {
		dst = appendWorkload(dst, d.Workload)
	}
	if d.Strategy != nil {
		dst = appendStrategy(dst, d.Strategy)
	}
	dst = appendStrategyConfig(dst, &d.Config)
	if d.Adaptive != nil {
		return appendWireJSON(dst, d.Adaptive)
	}
	return dst, nil
}

func (c *binaryCodec) AppendRequest(dst []byte, req *request) ([]byte, error) {
	if req.Op < opEnact || req.Op > opClose {
		return dst, violation{fmt.Errorf("backend: encoding frame: unknown operation %d", req.Op)}
	}
	dst = append(dst, req.Op)
	dst = binary.AppendUvarint(dst, req.ID)
	var bits byte
	if req.Desc != nil {
		bits |= reqHasDesc
	}
	if req.Workload != nil {
		bits |= reqHasWorkload
	}
	if req.Config != nil {
		bits |= reqHasConfig
	}
	if req.Chaos != nil {
		bits |= reqHasChaos
	}
	dst = append(dst, bits)
	dst = binary.AppendVarint(dst, int64(req.Max))
	dst = binary.AppendVarint(dst, int64(req.Key))
	dst = appendWireString(dst, req.Reason)
	var err error
	if req.Desc != nil {
		dst, err = appendDescriptor(dst, req.Desc)
	}
	if err == nil && req.Workload != nil {
		dst = appendWorkload(dst, req.Workload)
	}
	if err == nil && req.Config != nil {
		dst = appendStrategyConfig(dst, req.Config)
	}
	if err == nil && req.Chaos != nil {
		dst, err = appendWireJSON(dst, req.Chaos)
	}
	return dst, err
}

func (c *binaryCodec) DecodeRequest(data []byte, req *request) error {
	r := binReader{data: data}
	if req.Op = r.byte(); req.Op < opEnact || req.Op > opClose {
		r.fail("unknown opcode %d", req.Op)
	}
	req.ID = r.uvarint()
	bits := r.byte()
	req.Max = int(r.varint())
	req.Key = int(r.varint())
	req.Reason = string(r.bytes())
	if bits&reqHasDesc != 0 {
		req.Desc = c.readDescriptor(&r)
	}
	if bits&reqHasWorkload != 0 {
		req.Workload = r.workload()
	}
	if bits&reqHasConfig != 0 {
		req.Config = new(core.StrategyConfig)
		c.readStrategyConfig(&r, req.Config)
	}
	if bits&reqHasChaos != 0 {
		req.Chaos = new(ChaosEvent)
		r.json(req.Chaos)
	}
	return r.finish()
}

func (c *binaryCodec) AppendResponse(dst []byte, resp *response) ([]byte, error) {
	dst = binary.AppendUvarint(dst, resp.ID)
	dst = appendWireString(dst, resp.Err)
	dst = appendWireString(dst, resp.Diag)
	var bits byte
	if resp.Drained {
		bits |= respDrained
	}
	if resp.Enacted != nil {
		bits |= respHasEnacted
	}
	if resp.Strategy != nil {
		bits |= respHasStrategy
	}
	dst = append(dst, bits)
	dst = binary.AppendVarint(dst, int64(resp.Fired))
	if resp.Enacted != nil {
		dst = appendWireString(dst, resp.Enacted.Namespace)
		dst = appendStrategy(dst, &resp.Enacted.Strategy)
	}
	if resp.Strategy != nil {
		dst = appendStrategy(dst, resp.Strategy)
	}
	dst = binary.AppendUvarint(dst, uint64(len(resp.Events)))
	if len(resp.Events) == 0 {
		return dst, nil
	}
	body, err := c.appendEvents(c.body[:0], resp.Events)
	c.body = body
	if err != nil {
		return dst, err
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.table)))
	for _, s := range c.table {
		dst = appendWireString(dst, s)
	}
	return append(dst, body...), nil
}

// appendEvents appends events in their frame form and leaves the strings
// they refer to in c.table, in order of first use.
func (c *binaryCodec) appendEvents(dst []byte, events []wireEvent) ([]byte, error) {
	if c.index == nil {
		c.index = make(map[string]uint64, 256)
	}
	clear(c.index)
	c.table = c.table[:0]
	var at int64 // the previous record's time
	lastNS, nsRef := "", uint64(0)
	var err error
	for i := range events {
		ev := &events[i]
		dst = append(dst, ev.Kind)
		dst = binary.AppendVarint(dst, int64(ev.Key))
		if ev.NS != lastNS {
			lastNS, nsRef = ev.NS, c.ref(ev.NS)
		}
		dst = binary.AppendUvarint(dst, nsRef)
		var ebits byte
		if ev.Rec != nil {
			ebits |= evHasRec
		}
		if ev.Report != nil {
			ebits |= evHasReport
		}
		dst = append(dst, ebits)
		if rec := ev.Rec; rec != nil {
			dst = binary.AppendVarint(dst, int64(rec.Time)-at)
			at = int64(rec.Time)
			dst = binary.AppendUvarint(dst, c.ref(rec.Entity))
			dst = binary.AppendUvarint(dst, c.ref(rec.State))
			dst = binary.AppendUvarint(dst, c.ref(rec.Detail))
		}
		if ev.Report != nil {
			if dst, err = appendReport(dst, ev.Report); err != nil {
				return dst, err
			}
		}
	}
	return dst, nil
}

// decodeChunk is how many tasks, files and strings of a workload a decoder
// reserves at a time.
const decodeChunk = 1024

// DecodeResponse decodes a response's fields and leaves its events where
// they are, in the frame: the call that owns the frame decodes them a chunk
// at a time into storage of its own (session.dispatch, readEvents), so the
// parent keeps no event list or record slab at all.
func (c *binaryCodec) DecodeResponse(data []byte, resp *response) error {
	r := binReader{data: data}
	resp.ID = r.uvarint()
	resp.Err = string(r.bytes())
	resp.Diag = string(r.bytes())
	bits := r.byte()
	resp.Drained = bits&respDrained != 0
	resp.Fired = int(r.varint())
	if bits&respHasEnacted != 0 {
		resp.Enacted = &Enacted{Namespace: c.intern(r.bytes())}
		c.readStrategy(&r, &resp.Enacted.Strategy)
	}
	if bits&respHasStrategy != 0 {
		resp.Strategy = new(core.Strategy)
		c.readStrategy(&r, resp.Strategy)
	}
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return r.finish()
	}
	// The count is the peer's word, and an event is at least 4 bytes: a
	// count the payload cannot hold is refused here. Nothing is reserved
	// from it either way.
	if max := uint64(len(r.data)/4 + 1); n > max {
		return violation{fmt.Errorf("backend: decoding frame: event count %d exceeds payload", n)}
	}
	// The table goes into the storage the call brought along with its
	// frame, grown as entries are read: each takes at least its length
	// byte, so a forged count is refused before anything is reserved.
	table := resp.tail.table[:0]
	for k := r.count(1); k > 0 && r.err == nil; k-- {
		table = append(table, c.name(r.bytes()))
	}
	if r.err != nil {
		return r.err
	}
	resp.Events = nil
	resp.tail = eventTail{left: int(n), bin: c, table: table, rd: binReader{data: r.data}}
	return nil
}

// readEvents decodes the next up to len(dst) of t's events into dst, and
// after the last one checks that the frame ends there. Its strings are the
// frame's table entries, resolved when the frame was read; only a
// completion's report is allocated. On an error no event of dst is valid.
func (c *binaryCodec) readEvents(t *eventTail, dst []event) (int, error) {
	r := &t.rd
	n := min(t.left, len(dst))
	for i := range n {
		ev := &dst[i]
		ev.kind = r.byte()
		if ev.kind != kindTrace && ev.kind != kindDone {
			r.fail("unknown event kind %d", ev.kind)
		}
		ev.key = int(r.varint())
		ev.ns = t.str()
		ev.rec, ev.report = trace.Record{}, nil
		ebits := r.byte()
		if ebits&evHasRec != 0 {
			t.at += r.varint()
			ev.entity = t.entry()
			ev.rec = trace.Record{Time: sim.Time(t.at), Entity: ev.entity.String(), State: t.str(), Detail: t.str()}
		} else if ev.kind == kindTrace {
			r.fail("trace event without a record")
		}
		if ebits&evHasReport != 0 {
			ev.report = c.readReport(r)
		}
		if r.err != nil {
			return 0, r.err
		}
	}
	if t.left -= n; t.left == 0 {
		if err := r.finish(); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// str reads a string's index into the frame's table.
func (t *eventTail) str() string { return t.entry().String() }

// entry reads a string's index into the frame's table and returns the entry.
func (t *eventTail) entry() trace.Entity {
	i := t.rd.uvarint()
	if i > uint64(len(t.table)) {
		t.rd.fail("string %d past the frame's %d-entry table", i, len(t.table))
		return trace.Entity{}
	}
	if i == 0 {
		return trace.Entity{}
	}
	return t.table[i-1]
}

func (c *binaryCodec) readDescriptor(r *binReader) *Descriptor {
	d := new(Descriptor)
	d.Key, d.MigratedFrom = r.int(), r.int()
	hasWorkload, hasStrategy, hasAdaptive := r.byte() != 0, r.byte() != 0, r.byte() != 0
	if hasWorkload {
		d.Workload = r.workload()
	}
	if hasStrategy {
		d.Strategy = new(core.Strategy)
		c.readStrategy(r, d.Strategy)
	}
	c.readStrategyConfig(r, &d.Config)
	if hasAdaptive {
		d.Adaptive = new(core.AdaptiveConfig)
		r.json(d.Adaptive)
	}
	return d
}

// The readers below assign several fields at once: Go makes the calls on
// the right from left to right, which is the layout's order.

func (c *binaryCodec) readStrategy(r *binReader, s *core.Strategy) {
	s.Binding, s.Scheduler, s.Pilots = core.Binding(r.varint()), core.SchedulerKind(r.varint()), r.int()
	s.Resources = r.strs(nil, c.intern)
	s.PilotCores, s.PilotWalltime, s.EstTx, s.EstTs, s.EstTrp = r.int(), r.dur(), r.dur(), r.dur(), r.dur()
}

func (c *binaryCodec) readStrategyConfig(r *binReader, cfg *core.StrategyConfig) {
	cfg.Binding, cfg.Scheduler, cfg.Pilots, cfg.AutoPilots = core.Binding(r.varint()), core.SchedulerKind(r.varint()), r.int(), r.varint() != 0
	cfg.Selection = core.Selection(r.varint())
	cfg.FixedResources = r.strs(nil, c.intern)
}

// readReport reads a report: its pilot IDs are this job's alone, so they
// are carved from the report's arena; resource names are interned.
func (c *binaryCodec) readReport(r *binReader) *core.Report {
	rep := new(core.Report)
	r.reserve(r.count(1))
	c.readStrategy(r, &rep.Strategy)
	rep.TTC, rep.Tw, rep.Tx, rep.Ts = r.dur(), r.dur(), r.dur(), r.dur()
	rep.UnitsDone, rep.UnitsFailed, rep.UnitsCanceled, rep.TotalRestarts = r.int(), r.int(), r.int(), r.int()
	rep.PilotsActivated, rep.ExtraPilots = r.int(), r.int()
	rep.PilotWaits = readMap[time.Duration](r, r.carve)
	rep.UnitsByResource = readMap[int](r, c.intern)
	rep.Throughput, rep.CoreHours, rep.BusyCoreHours, rep.Efficiency = r.float(), r.float(), r.float(), r.float()
	return rep
}

func readMap[V ~int | ~int64](r *binReader, key func([]byte) string) map[string]V {
	n := r.list(2)
	if n < 0 {
		return nil
	}
	m := make(map[string]V, min(n, decodeChunk))
	for ; n > 0 && r.err == nil; n-- {
		m[key(r.bytes())] = V(r.varint())
	}
	return m
}

// slab hands out room for consecutive lists of the elements a payload
// claims, a chunk at a time, so a real workload's files (or strings) are one
// allocation and a forged count costs one chunk: a list longer than a chunk
// (forged, or an all-to-all stage's deps) grows as it is read.
type slab[T any] struct {
	free []T
	left int // elements claimed and not yet handed out
}

// take returns an empty list with room for n elements, or for a chunk of
// them, for the caller to append to.
func (s *slab[T]) take(r *binReader, n int) []T {
	if n > s.left {
		r.fail("list of %d beyond the %d elements the payload claims", n, s.left)
		return nil
	}
	if n == 0 {
		return []T{}
	}
	if n > len(s.free) {
		s.free = make([]T, min(s.left, decodeChunk))
	}
	k := min(n, len(s.free))
	part := s.free[:0:k]
	s.free, s.left = s.free[k:], s.left-n
	return part
}

// workload reads a workload in one pass into one []Task, a []File and a
// []string slab and one string arena, all sized from the counts the layout
// leads with and none aliasing the frame, which the host reuses for the
// next request.
func (r *binReader) workload() *skeleton.Workload {
	w := new(skeleton.Workload)
	tasks := r.list(8)
	files := slab[skeleton.File]{left: r.count(3)}
	strs := slab[string]{left: r.count(1)}
	r.reserve(r.count(1))
	w.Name = r.text()
	w.Stages = r.strs(&strs, r.carve)
	if tasks < 0 {
		return w
	}
	w.Tasks = make([]skeleton.Task, 0, min(tasks, decodeChunk))
	for ; tasks > 0 && r.err == nil; tasks-- {
		w.Tasks = append(w.Tasks, skeleton.Task{ID: r.text(), Stage: r.text(), Index: r.int(), Cores: r.int(), Duration: r.dur()})
		t := &w.Tasks[len(w.Tasks)-1]
		t.Inputs, t.Outputs, t.Deps = r.files(&files), r.files(&files), r.strs(&strs, r.carve)
	}
	return w
}

func (r *binReader) files(s *slab[skeleton.File]) []skeleton.File {
	n := r.list(3)
	if n < 0 {
		return nil
	}
	fs := s.take(r, n)
	for ; n > 0 && r.err == nil; n-- {
		fs = append(fs, skeleton.File{Name: r.text(), Bytes: r.varint(), Producer: r.text()})
	}
	return fs
}

// strs reads a string list into room from s (a slab of its own when nil),
// each string by str.
func (r *binReader) strs(s *slab[string], str func([]byte) string) []string {
	n := r.list(1)
	if n < 0 {
		return nil
	}
	if s == nil {
		s = &slab[string]{left: n}
	}
	ss := s.take(r, n)
	for ; n > 0 && r.err == nil; n-- {
		ss = append(ss, str(r.bytes()))
	}
	return ss
}

// binReader is a cursor over one binary payload with a sticky error: after
// the first malformed field every subsequent read is a zero-value no-op and
// finish reports the cause, so decode paths read straight through without
// per-field error plumbing.
type binReader struct {
	data  []byte
	err   error
	arena strings.Builder // the current payload's strings
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = violation{fmt.Errorf("backend: decoding frame: "+format, args...)}
	}
}

func (r *binReader) byte() byte {
	if r.err != nil || len(r.data) == 0 {
		r.fail("truncated byte")
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *binReader) int() int           { return int(r.varint()) }
func (r *binReader) dur() time.Duration { return time.Duration(r.varint()) }

func (r *binReader) float() float64 {
	if r.err != nil || len(r.data) < 8 {
		r.fail("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.data))
	r.data = r.data[8:]
	return f
}

// count reads a count the rest of the payload must back with at least size
// bytes an element, refusing one it cannot before anything is reserved.
func (r *binReader) count(size int) int {
	n := r.uvarint()
	if n > uint64(len(r.data)/size) {
		r.fail("count %d exceeds the payload", n)
		return 0
	}
	return int(n)
}

// list reads a list or map count (length plus one on the wire), -1 for nil.
// The length, not the wire value, is held to the payload, so an empty list
// may end it.
func (r *binReader) list(size int) int {
	n := r.uvarint()
	if n > uint64(len(r.data)/size)+1 {
		r.fail("count %d exceeds the payload", n-1)
		return -1
	}
	return int(n) - 1
}

// bytes reads one length-prefixed field, borrowing from the payload.
func (r *binReader) bytes() []byte {
	l := r.uvarint()
	if r.err != nil {
		return nil
	}
	if l > uint64(len(r.data)) {
		r.fail("truncated string")
		return nil
	}
	b := r.data[:l]
	r.data = r.data[l:]
	return b
}

// reserve starts a payload's string arena, of the n bytes its layout says
// its strings hold.
func (r *binReader) reserve(n int) {
	r.arena = strings.Builder{}
	r.arena.Grow(n)
}

// carve copies b into the arena. The arena only ever appends, so every
// string carved from it stays valid, even if a forged size makes it grow.
func (r *binReader) carve(b []byte) string {
	start := r.arena.Len()
	r.arena.Write(b)
	return r.arena.String()[start:]
}

// text reads one length-prefixed string into the arena.
func (r *binReader) text() string { return r.carve(r.bytes()) }

// json decodes one length-prefixed JSON blob into v.
func (r *binReader) json(v any) {
	b := r.bytes()
	if r.err != nil {
		return
	}
	if err := json.Unmarshal(b, v); err != nil {
		r.err = violation{fmt.Errorf("backend: decoding frame: %w", err)}
	}
}

func (r *binReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if len(r.data) != 0 {
		return violation{fmt.Errorf("backend: decoding frame: %d trailing bytes", len(r.data))}
	}
	return nil
}
