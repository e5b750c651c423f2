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
	"unicode/utf8"
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
	dst = AppendJSONStrings(append(dst, `,"stages":`...), w.Stages)
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
		dst = AppendJSONFloat(append(dst, `,"duration_s":`...), t.Duration.Seconds())
		if len(t.Inputs) > 0 {
			dst = appendFiles(append(dst, `,"inputs":`...), t.Inputs)
		}
		if len(t.Outputs) > 0 {
			dst = appendFiles(append(dst, `,"outputs":`...), t.Outputs)
		}
		if len(t.Deps) > 0 {
			dst = AppendJSONStrings(append(dst, `,"deps":`...), t.Deps)
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

// AppendJSONStrings appends list as encoding/json writes a []string.
func AppendJSONStrings(dst []byte, list []string) []byte {
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
// interchange document's strings, and aimes-server's payloads. Text json
// passes through (printable ASCII, valid multi-byte UTF-8) is copied;
// anything it would escape (quotes, backslashes, HTML characters, control
// bytes, DEL, U+2028/9, invalid UTF-8) is left to it.
func AppendJSONString(dst []byte, s string) []byte {
	if plainLen(s, true, utf8.DecodeRuneInString) < len(s) {
		quoted, _ := json.Marshal(s) // a string always marshals
		return append(dst, quoted...)
	}
	return append(append(append(dst, '"'), s...), '"')
}

// plainLen is the length of the longest prefix of s that encoding/json both
// writes unescaped (when html, also without <, > and &) and reads unchanged:
// printable ASCII but the quote and the backslash, and valid multi-byte UTF-8
// but U+2028 and U+2029.
func plainLen[T string | []byte](s T, html bool, decode func(T) (rune, int)) int {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || html && (c == '<' || c == '>' || c == '&') {
				return i
			}
			i++
			continue
		}
		r, n := decode(s[i:])
		if r == utf8.RuneError && n == 1 || r == '\u2028' || r == '\u2029' {
			return i
		}
		i += n
	}
	return len(s)
}

// AppendJSONFloat formats f as encoding/json formats a float64: shortest
// round-trip digits, in 'f' form from 1e-6 up to 1e21 and 'e' form outside
// it, with a one-digit negative exponent written as one digit (1e-9, not
// 1e-09). json refuses NaN and the infinities; the caller checks for them.
func AppendJSONFloat(dst []byte, f float64) []byte {
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
// integrity (Index.Add: unique task IDs, dependencies on earlier tasks,
// non-negative sizes); nothing may follow the document but whitespace. The
// compact form AppendMiddlewareJSON writes is read by JSONReader.Workload;
// anything else, an indented document included, is decoded by encoding/json.
func ParseWorkload(b []byte) (*Workload, error) {
	r := JSONReader{b}
	w, err := r.Workload()
	if w == nil && err == nil || !r.End() {
		if w, err = decodeWorkload(b); err == nil {
			err = validate(w)
		}
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// decodeWorkload is encoding/json's reading of a document: the path of every
// document the compact reader declines, and the reference it is held to
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
// task, and the rules of an executable task (Index.Add).
func validate(w *Workload) error {
	if w.Name == "" {
		return fmt.Errorf("skeleton: workload JSON needs a name")
	}
	if len(w.Tasks) == 0 {
		return fmt.Errorf("skeleton: workload %q has no tasks", w.Name)
	}
	var x Index
	return x.Add(w.Tasks)
}

// Workload reads, at r's position, an interchange document in exactly the
// form AppendMiddlewareJSON writes it, in two passes — the first counts, the
// second fills one task slice, one file slab, one string-list slab and one
// arena of string bytes, each of exact size and none aliasing r's input — and
// validates it. A document in any other form returns nil, nil, for the
// caller to hand its whole input to encoding/json.
func (r *JSONReader) Workload() (*Workload, error) {
	count := compactReader{JSONReader: *r}
	if !count.doc() {
		return nil, nil
	}
	fill := compactReader{
		JSONReader: *r,
		w:          &Workload{Tasks: make([]Task, 0, count.nTasks)},
		files:      make([]File, 0, count.nFiles),
		lists:      make([]string, 0, count.nLists),
	}
	fill.arena.Grow(count.nText)
	fill.doc() // the same bytes take the same path
	*r = fill.JSONReader
	if err := validate(fill.w); err != nil {
		return nil, err
	}
	return fill.w, nil
}

// compactReader reads the grammar AppendMiddlewareJSON writes: the keys in
// order, no whitespace inside the document, strings JSONReader.Str reads,
// integers encoding/json would decode into their fields, every list non-empty
// and stages possibly null. Its first pass (w nil) only counts what the
// document holds; its second stores it, carving each task's lists from the
// slabs and each string from the arena.
type compactReader struct {
	JSONReader

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
	if !(r.Lit(`{"name":`) && r.str(&name) &&
		r.Lit(`,"stages":`) && (r.Lit("null") || r.strs(&stages)) &&
		r.Lit(`,"tasks":`) && r.List(r.task) && r.Lit("}")) {
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
	if !(r.Lit(`{"id":`) && r.str(&t.ID) &&
		r.Lit(`,"stage":`) && r.str(&t.Stage) &&
		r.Lit(`,"index":`) && ReadInt(&r.JSONReader, &t.Index) &&
		r.Lit(`,"cores":`) && ReadInt(&r.JSONReader, &t.Cores) &&
		r.Lit(`,"duration_s":`) && r.Float(&s)) {
		return false
	}
	if r.Lit(`,"inputs":`) && !r.fileList(&t.Inputs) ||
		r.Lit(`,"outputs":`) && !r.fileList(&t.Outputs) ||
		r.Lit(`,"deps":`) && !r.strs(&t.Deps) ||
		!r.Lit("}") {
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
	if !(r.Lit(`{"name":`) && r.str(&f.Name) &&
		r.Lit(`,"bytes":`) && ReadInt(&r.JSONReader, &f.Bytes)) ||
		r.Lit(`,"producer":`) && !r.str(&f.Producer) ||
		!r.Lit("}") {
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
	if !r.List(r.file) {
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
	if !r.List(func() bool {
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

// str reads a string into dst: in the second pass, a slice of the arena.
func (r *compactReader) str(dst *string) bool {
	raw, ok := r.Str()
	if !ok {
		return false
	}
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

// JSONReader reads JSON in place, in the compact form encoding/json writes:
// the caller names each key and punctuation mark it expects (Lit), strings
// have no escapes, numbers are read as json reads them into their fields.
// Each method consumes what it reads and reports whether the input held it;
// after a false the caller leaves its whole input to encoding/json. The
// interchange document's reader and package client's body readers use it.
type JSONReader struct{ b []byte }

// NewJSONReader returns a reader at the start of b.
func NewJSONReader(b []byte) JSONReader { return JSONReader{b} }

// Rest returns the input not yet consumed.
func (r *JSONReader) Rest() []byte { return r.b }

// End reports whether nothing but whitespace is left.
func (r *JSONReader) End() bool { return len(bytes.TrimLeft(r.b, " \t\r\n")) == 0 }

// Lit consumes s if the input starts with it.
func (r *JSONReader) Lit(s string) bool {
	if len(r.b) < len(s) || string(r.b[:len(s)]) != s {
		return false
	}
	r.b = r.b[len(s):]
	return true
}

// Str reads a string of printable ASCII and valid multi-byte UTF-8 other
// than U+2028/9, with no escapes, and returns its value: the bytes between
// the quotes, which alias the input.
func (r *JSONReader) Str() ([]byte, bool) {
	if len(r.b) == 0 || r.b[0] != '"' {
		return nil, false
	}
	end := 1 + plainLen(r.b[1:], false, utf8.DecodeRune)
	if end == len(r.b) || r.b[end] != '"' {
		return nil, false
	}
	raw := r.b[1:end]
	r.b = r.b[end+1:]
	return raw, true
}

// ReadInt reads an integer json would decode into a field of type T.
func ReadInt[T ~int | ~int64](r *JSONReader, dst *T) bool {
	n, err := strconv.ParseInt(string(r.number()), 10, 64)
	*dst = T(n)
	return err == nil && int64(*dst) == n
}

// Float reads a number json would decode into a float64.
func (r *JSONReader) Float(dst *float64) bool {
	f, err := strconv.ParseFloat(string(r.number()), 64)
	*dst = f
	return err == nil
}

// List reads a JSON array of at least one element, each read by elem.
func (r *JSONReader) List(elem func() bool) bool {
	if !r.Lit("[") {
		return false
	}
	for elem() {
		if r.Lit("]") {
			return true
		}
		if !r.Lit(",") {
			return false
		}
	}
	return false
}

// number consumes a JSON number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and returns it; nil, which strconv rejects, when the input holds none.
func (r *JSONReader) number() []byte {
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
