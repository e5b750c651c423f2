package skeleton

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// The middleware JSON interchange format — the original tool's output mode
// "(d) a JSON structure that must be used by a middleware that is designed
// to read it". AppendMiddlewareJSON / WriteMiddlewareJSON and ParseWorkload
// / ParseWorkloadJSON round-trip a concrete workload losslessly, so a
// workload generated on one machine can be executed by an AIMES instance
// elsewhere.

// wlJSON is the document's encoding/json form: what AppendMiddlewareJSON's
// output is held to byte for byte, and the decoder of every document the
// compact reader declines.
type wlJSON struct {
	Name   string       `json:"name"`
	Stages []string     `json:"stages"`
	Tasks  []wlTaskJSON `json:"tasks"`
}

type wlTaskJSON struct {
	ID        string       `json:"id"`
	Stage     string       `json:"stage"`
	Index     int          `json:"index"`
	Cores     int          `json:"cores"`
	DurationS float64      `json:"duration_s"`
	Inputs    []wlFileJSON `json:"inputs,omitempty"`
	Outputs   []wlFileJSON `json:"outputs,omitempty"`
	Deps      []string     `json:"deps,omitempty"`
}

type wlFileJSON struct {
	Name     string `json:"name"`
	Bytes    int64  `json:"bytes"`
	Producer string `json:"producer,omitempty"`
}

// WriteMiddlewareJSON emits the full workload, including per-file detail and
// dependencies, indented, for consumption by another middleware instance.
func (w *Workload) WriteMiddlewareJSON(out io.Writer) error {
	var buf bytes.Buffer
	if err := json.Indent(&buf, w.AppendMiddlewareJSON(nil), "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err := out.Write(buf.Bytes())
	return err
}

// AppendMiddlewareJSON appends the workload's interchange document to dst,
// compact: byte for byte what json.Marshal writes for it. When dst has too
// little room it grows once, by a bound on the document's size, so an
// append to nil costs one allocation.
func (w *Workload) AppendMiddlewareJSON(dst []byte) []byte {
	if n := w.middlewareJSONSize(); cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = AppendJSONString(append(dst, `{"name":`...), w.Name)
	dst = appendStrings(append(dst, `,"stages":`...), w.Stages)
	if len(w.Tasks) == 0 {
		return append(dst, `,"tasks":null}`...)
	}
	dst = append(dst, `,"tasks":[`...)
	for i := range w.Tasks {
		t := &w.Tasks[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(append(dst, `{"id":`...), t.ID)
		dst = AppendJSONString(append(dst, `,"stage":`...), t.Stage)
		dst = strconv.AppendInt(append(dst, `,"index":`...), int64(t.Index), 10)
		dst = strconv.AppendInt(append(dst, `,"cores":`...), int64(t.Cores), 10)
		dst = appendSeconds(append(dst, `,"duration_s":`...), t.Duration.Seconds())
		if len(t.Inputs) > 0 {
			dst = appendFiles(append(dst, `,"inputs":`...), t.Inputs)
		}
		if len(t.Outputs) > 0 {
			dst = appendFiles(append(dst, `,"outputs":`...), t.Outputs)
		}
		if len(t.Deps) > 0 {
			dst = appendStrings(append(dst, `,"deps":`...), t.Deps)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// middlewareJSONSize bounds the compact document's length when no string
// needs escaping: every string's bytes and quotes, every key and separator,
// 20 bytes per integer and 24 per duration.
func (w *Workload) middlewareJSONSize() int {
	n := len(`{"name":"","stages":null,"tasks":[]}`) + len(w.Name)
	for _, s := range w.Stages {
		n += len(s) + 3
	}
	for i := range w.Tasks {
		t := &w.Tasks[i]
		n += len(`,{"id":"","stage":"","index":,"cores":,"duration_s":,"inputs":[],"outputs":[],"deps":[]}`) +
			2*20 + 24 + len(t.ID) + len(t.Stage)
		for _, files := range [2][]File{t.Inputs, t.Outputs} {
			for _, f := range files {
				n += len(`,{"name":"","bytes":,"producer":""}`) + 20 + len(f.Name) + len(f.Producer)
			}
		}
		for _, d := range t.Deps {
			n += len(d) + 3
		}
	}
	return n
}

func appendStrings(dst []byte, list []string) []byte {
	if list == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range list {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, s)
	}
	return append(dst, ']')
}

func appendFiles(dst []byte, files []File) []byte {
	dst = append(dst, '[')
	for i := range files {
		f := &files[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(append(dst, `{"name":`...), f.Name)
		dst = strconv.AppendInt(append(dst, `,"bytes":`...), f.Bytes, 10)
		if f.Producer != "" {
			dst = AppendJSONString(append(dst, `,"producer":`...), f.Producer)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// AppendJSONString appends s quoted as encoding/json quotes it — the
// interchange document's strings, and aimes-server's SSE payloads. Printable
// ASCII that json passes through is copied; anything it would escape
// (quotes, backslashes, HTML characters, control bytes, U+2028/9, invalid
// UTF-8) is left to it.
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// appendSeconds formats f as encoding/json formats a float64: shortest
// round-trip digits, in 'f' form from 1e-6 up to 1e21 and 'e' form outside
// it, with a one-digit negative exponent written as one digit (1e-9, not
// 1e-09).
func appendSeconds(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// ParseWorkloadJSON reads a workload from r with ParseWorkload.
func ParseWorkloadJSON(r io.Reader) (*Workload, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("skeleton: reading workload JSON: %w", err)
	}
	return ParseWorkload(b)
}

// ParseWorkload reads an interchange document and validates its structural
// integrity (unique task IDs, resolvable dependencies, non-negative sizes);
// nothing may follow the document but whitespace. The compact form
// AppendMiddlewareJSON writes is read in two passes over b — the first
// counts, the second fills one task slice, one file slab, one string-list
// slab and one arena of string bytes, each of exact size and none aliasing
// b. Anything else, an indented document included, is decoded by
// encoding/json.
func ParseWorkload(b []byte) (*Workload, error) {
	w := readCompact(b)
	if w == nil {
		var err error
		if w, err = decodeWorkload(b); err != nil {
			return nil, err
		}
	}
	if err := validate(w); err != nil {
		return nil, err
	}
	return w, nil
}

// decodeWorkload is encoding/json's reading of a document: the path of every
// document readCompact declines, and the reference it is held to
// (FuzzParseWorkload).
func decodeWorkload(b []byte) (*Workload, error) {
	var doc wlJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("skeleton: parsing workload JSON: %w", err)
	}
	if len(bytes.TrimLeft(b[dec.InputOffset():], " \t\r\n")) > 0 {
		return nil, fmt.Errorf("skeleton: parsing workload JSON: data after the document")
	}
	w := &Workload{Name: doc.Name, Stages: doc.Stages, Tasks: make([]Task, 0, len(doc.Tasks))}
	files := 0
	for i := range doc.Tasks {
		files += len(doc.Tasks[i].Inputs) + len(doc.Tasks[i].Outputs)
	}
	// Every task's files are carved from one slab; the capped slices keep an
	// append to one task's list out of the next one's, and a task without
	// files keeps a nil list.
	slab := make([]File, 0, files)
	carve := func(list []wlFileJSON) []File {
		if len(list) == 0 {
			return nil
		}
		first := len(slab)
		for _, f := range list {
			slab = append(slab, File(f))
		}
		return slab[first:len(slab):len(slab)]
	}
	for _, tj := range doc.Tasks {
		w.Tasks = append(w.Tasks, Task{
			ID:       tj.ID,
			Stage:    tj.Stage,
			Index:    tj.Index,
			Cores:    tj.Cores,
			Duration: seconds(tj.DurationS),
			Inputs:   carve(tj.Inputs),
			Outputs:  carve(tj.Outputs),
			Deps:     tj.Deps,
		})
	}
	return w, nil
}

// seconds converts duration_s, rounding: a truncating conversion brings
// about one nanosecond-granular duration in fifty back a nanosecond short.
func seconds(s float64) time.Duration {
	return time.Duration(math.Round(s * float64(time.Second)))
}

// validate checks what both readers leave unchecked: a name, at least one
// task, unique non-empty task IDs, positive cores, non-negative durations and
// sizes, and dependencies and producers that name tasks of the workload.
func validate(w *Workload) error {
	if w.Name == "" {
		return fmt.Errorf("skeleton: workload JSON needs a name")
	}
	if len(w.Tasks) == 0 {
		return fmt.Errorf("skeleton: workload %q has no tasks", w.Name)
	}
	ids := make(map[string]bool, len(w.Tasks))
	for i := range w.Tasks {
		t := &w.Tasks[i]
		if t.ID == "" {
			return fmt.Errorf("skeleton: task without id")
		}
		if ids[t.ID] {
			return fmt.Errorf("skeleton: duplicate task id %q", t.ID)
		}
		ids[t.ID] = true
		if t.Cores <= 0 {
			return fmt.Errorf("skeleton: task %q requests %d cores", t.ID, t.Cores)
		}
		if t.Duration < 0 {
			return fmt.Errorf("skeleton: task %q has negative duration", t.ID)
		}
		for _, f := range t.Inputs {
			if f.Bytes < 0 {
				return fmt.Errorf("skeleton: task %q input %q has negative size", t.ID, f.Name)
			}
		}
		for _, f := range t.Outputs {
			if f.Bytes < 0 {
				return fmt.Errorf("skeleton: task %q output %q has negative size", t.ID, f.Name)
			}
		}
	}
	for i := range w.Tasks {
		t := &w.Tasks[i]
		for _, dep := range t.Deps {
			if !ids[dep] {
				return fmt.Errorf("skeleton: task %q depends on unknown task %q", t.ID, dep)
			}
		}
		for _, f := range t.Inputs {
			if f.Producer != "" && !ids[f.Producer] {
				return fmt.Errorf("skeleton: task %q input produced by unknown task %q", t.ID, f.Producer)
			}
		}
	}
	return nil
}

// readCompact reads the document in exactly the form AppendMiddlewareJSON
// writes it, in two passes over b, or returns nil for anything else.
func readCompact(b []byte) *Workload {
	count := compactReader{b: b}
	if !count.doc() {
		return nil
	}
	fill := compactReader{
		b:     b,
		w:     &Workload{Tasks: make([]Task, 0, count.nTasks)},
		files: make([]File, 0, count.nFiles),
		lists: make([]string, 0, count.nLists),
	}
	fill.arena.Grow(count.nText)
	fill.doc() // the same bytes take the same path
	return fill.w
}

// compactReader reads the grammar AppendMiddlewareJSON writes: the keys in
// order, no whitespace inside the document, strings of printable ASCII with
// no escapes, integers encoding/json would decode into their fields, every
// list non-empty and stages possibly null. Its first pass (w nil) only counts
// what the document holds; its second stores it, carving each task's lists
// from the slabs and each string from the arena.
type compactReader struct {
	b []byte

	// First pass: what the slabs and the arena must hold.
	nTasks, nFiles, nLists, nText int

	// Second pass: where it goes.
	w     *Workload
	files []File
	lists []string
	arena strings.Builder
}

func (r *compactReader) doc() bool {
	var name string
	var stages []string
	if !(r.lit(`{"name":`) && r.str(&name) &&
		r.lit(`,"stages":`) && (r.lit("null") || r.strs(&stages)) &&
		r.lit(`,"tasks":`) && r.list(r.task) && r.lit("}")) {
		return false
	}
	if len(bytes.TrimLeft(r.b, " \t\r\n")) > 0 {
		return false
	}
	if r.w != nil {
		r.w.Name, r.w.Stages = name, stages
	}
	return true
}

func (r *compactReader) task() bool {
	var t Task
	var s float64
	if !(r.lit(`{"id":`) && r.str(&t.ID) &&
		r.lit(`,"stage":`) && r.str(&t.Stage) &&
		r.lit(`,"index":`) && r.int(&t.Index) &&
		r.lit(`,"cores":`) && r.int(&t.Cores) &&
		r.lit(`,"duration_s":`) && r.float(&s)) {
		return false
	}
	if r.lit(`,"inputs":`) && !r.fileList(&t.Inputs) ||
		r.lit(`,"outputs":`) && !r.fileList(&t.Outputs) ||
		r.lit(`,"deps":`) && !r.strs(&t.Deps) ||
		!r.lit("}") {
		return false
	}
	t.Duration = seconds(s)
	r.nTasks++
	if r.w != nil {
		r.w.Tasks = append(r.w.Tasks, t)
	}
	return true
}

func (r *compactReader) file() bool {
	var f File
	if !(r.lit(`{"name":`) && r.str(&f.Name) &&
		r.lit(`,"bytes":`) && r.int64(&f.Bytes)) ||
		r.lit(`,"producer":`) && !r.str(&f.Producer) ||
		!r.lit("}") {
		return false
	}
	r.nFiles++
	if r.w != nil {
		r.files = append(r.files, f)
	}
	return true
}

// fileList reads a list of files into dst, carved from the file slab.
func (r *compactReader) fileList(dst *[]File) bool {
	first := len(r.files)
	if !r.list(r.file) {
		return false
	}
	if r.w != nil {
		*dst = r.files[first:len(r.files):len(r.files)]
	}
	return true
}

// strs reads a list of strings into dst, carved from the string-list slab.
func (r *compactReader) strs(dst *[]string) bool {
	first := len(r.lists)
	if !r.list(func() bool {
		var s string
		if !r.str(&s) {
			return false
		}
		r.nLists++
		if r.w != nil {
			r.lists = append(r.lists, s)
		}
		return true
	}) {
		return false
	}
	if r.w != nil {
		*dst = r.lists[first:len(r.lists):len(r.lists)]
	}
	return true
}

// list reads a JSON array of at least one element, each read by elem.
func (r *compactReader) list(elem func() bool) bool {
	if !r.lit("[") {
		return false
	}
	for elem() {
		if r.lit("]") {
			return true
		}
		if !r.lit(",") {
			return false
		}
	}
	return false
}

// lit consumes s if the input starts with it.
func (r *compactReader) lit(s string) bool {
	if len(r.b) < len(s) || string(r.b[:len(s)]) != s {
		return false
	}
	r.b = r.b[len(s):]
	return true
}

// str reads a string into dst: in the second pass, a slice of the arena.
func (r *compactReader) str(dst *string) bool {
	if len(r.b) == 0 || r.b[0] != '"' {
		return false
	}
	end := 1
	for ; end < len(r.b) && r.b[end] != '"'; end++ {
		if c := r.b[end]; c < 0x20 || c > 0x7e || c == '\\' {
			return false
		}
	}
	if end == len(r.b) {
		return false
	}
	raw := r.b[1:end]
	r.b = r.b[end+1:]
	r.nText += len(raw)
	if r.w != nil {
		// The arena only ever appends, so every string carved from it stays
		// valid, and sized by the first pass it never moves.
		start := r.arena.Len()
		r.arena.Write(raw)
		*dst = r.arena.String()[start:]
	}
	return true
}

func (r *compactReader) int(dst *int) bool {
	n, err := strconv.ParseInt(string(r.number()), 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}

func (r *compactReader) int64(dst *int64) bool {
	n, err := strconv.ParseInt(string(r.number()), 10, 64)
	*dst = n
	return err == nil
}

func (r *compactReader) float(dst *float64) bool {
	f, err := strconv.ParseFloat(string(r.number()), 64)
	*dst = f
	return err == nil
}

// number consumes a JSON number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and returns it; nil, which strconv rejects, when the input holds none.
func (r *compactReader) number() []byte {
	b, i := r.b, 0
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil
		}
	}
	r.b = b[i:]
	return b[:i]
}
