package skeleton

import (
	"fmt"
	"hash/maphash"
	"io"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// File is one data product moved between the origin and task sandboxes.
type File struct {
	// Name is unique within the workload.
	Name string
	// Bytes is the payload size.
	Bytes int64
	// Producer is the task ID that writes the file, or "" for external
	// inputs staged from the user's origin.
	Producer string
}

// External reports whether the file is staged from the origin.
func (f File) External() bool { return f.Producer == "" }

// Task is one concrete, executable task: it reads its inputs, computes for
// Duration (the skeleton executable sleeps), and writes its outputs.
type Task struct {
	// ID is unique within the workload, e.g. "stage-0.00042".
	ID string
	// Stage names the generating stage.
	Stage string
	// Index is the task's position within its stage.
	Index int
	// Cores is the core requirement (1 in the paper's experiments).
	Cores int
	// Duration is the compute time.
	Duration time.Duration
	// Inputs and Outputs are the task's files.
	Inputs  []File
	Outputs []File
	// Deps lists producer task IDs that must complete first.
	Deps []string
}

// InputBytes totals the task's input payload.
func (t Task) InputBytes() int64 {
	var n int64
	for _, f := range t.Inputs {
		n += f.Bytes
	}
	return n
}

// OutputBytes totals the task's output payload.
func (t Task) OutputBytes() int64 {
	var n int64
	for _, f := range t.Outputs {
		n += f.Bytes
	}
	return n
}

// Index maps the ID of each task it holds to the task's position among them.
// Add is the one place the rules of an executable task are checked, so every
// task an Index holds obeys them: the interchange reader checks a document
// with one, and the execution manager indexes a workload with one before it
// decides anything about the job, then hands it to the unit manager.
//
// It is an open-addressed table with linear probing over the indexed task
// slices themselves, so it holds no strings: a slot is the position plus one
// of the task whose ID hashes there, 0 when empty. The zero Index is empty,
// and an index of one batch allocates nothing but its slots. Copies share the
// slots, so once Add is called on one copy, only that copy is valid.
type Index struct {
	slots []int32  // a power of two long, at least twice the tasks held
	first []Task   // the first batch
	more  [][]Task // the later batches, in order
	n     int32    // the tasks held
}

// indexSeed hashes the IDs of every Index. Nothing walks the slots in order,
// so where a task lands never shows.
var indexSeed = maphash.MakeSeed()

// Len returns the number of tasks x holds.
func (x *Index) Len() int { return int(x.n) }

// Lookup returns the position of the task with the given ID and true, or -1
// and false if x holds none.
func (x *Index) Lookup(id string) (int32, bool) {
	if len(x.slots) == 0 {
		return -1, false
	}
	p := x.slots[x.slot(id)]
	return p - 1, p != 0
}

// slot returns the slot holding the task with the given ID, or else the empty
// slot where it would go. x must have slots.
func (x *Index) slot(id string) uint64 {
	mask := uint64(len(x.slots) - 1)
	s := maphash.String(indexSeed, id) & mask
	for p := x.slots[s]; p != 0 && x.task(p-1).ID != id; p = x.slots[s] {
		s = (s + 1) & mask
	}
	return s
}

// task returns the task at position p.
func (x *Index) task(p int32) *Task {
	if int(p) < len(x.first) {
		return &x.first[p]
	}
	p -= int32(len(x.first))
	for _, b := range x.more {
		if int(p) < len(b) {
			return &b[p]
		}
		p -= int32(len(b))
	}
	panic("skeleton: index position out of range")
}

// reserve makes room for n tasks in all: a table at least twice n long, to
// which the tasks held so far move.
func (x *Index) reserve(n int) {
	if 2*n <= len(x.slots) {
		return
	}
	old := x.slots
	x.slots = make([]int32, 1<<bits.Len(uint(2*n-1)))
	for _, p := range old {
		if p != 0 {
			x.slots[x.slot(x.task(p-1).ID)] = p
		}
	}
}

// Add checks tasks and indexes them in order after the tasks x already holds.
// A task needs an ID that x does not hold yet, at least one core, a
// non-negative duration, files of non-negative size, and dependencies and
// input producers that name a task indexed before it. Either every task is
// added or, with the first violation's error, none is. x keeps tasks, which
// the caller must not modify while x is in use.
func (x *Index) Add(tasks []Task) error {
	if len(tasks) == 0 {
		return nil
	}
	x.reserve(int(x.n) + len(tasks))
	if x.n == 0 {
		x.first = tasks
	} else {
		x.more = append(x.more, tasks)
	}
	for i := range tasks {
		s := x.slot(tasks[i].ID)
		if err := x.check(&tasks[i], x.slots[s] != 0); err != nil {
			// Undone newest first, each task is again the last of its
			// probe sequence, so clearing its slot restores the table.
			for j := i - 1; j >= 0; j-- {
				x.slots[x.slot(tasks[j].ID)] = 0
			}
			x.n -= int32(i)
			if x.n == 0 {
				x.first = nil
			} else {
				x.more = x.more[:len(x.more)-1]
			}
			return err
		}
		x.n++
		x.slots[s] = x.n
	}
	return nil
}

// check reports the first rule t breaks as the next task of x, or nil; dup
// says whether x holds t's ID already.
func (x *Index) check(t *Task, dup bool) error {
	if t.ID == "" {
		return fmt.Errorf("skeleton: task without id")
	}
	if dup {
		return fmt.Errorf("skeleton: duplicate task id %q", t.ID)
	}
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
		if f.Producer == "" {
			continue
		}
		if _, known := x.Lookup(f.Producer); !known {
			return fmt.Errorf("skeleton: task %q input produced by unknown task %q (producers come first)", t.ID, f.Producer)
		}
	}
	for _, f := range t.Outputs {
		if f.Bytes < 0 {
			return fmt.Errorf("skeleton: task %q output %q has negative size", t.ID, f.Name)
		}
	}
	for _, dep := range t.Deps {
		if _, known := x.Lookup(dep); !known {
			return fmt.Errorf("skeleton: task %q depends on unknown task %q (producers come first)", t.ID, dep)
		}
	}
	return nil
}

// Workload is a fully generated skeleton application: concrete tasks with
// durations, files and dependencies. Workloads are deterministic for a fixed
// (AppSpec, seed) pair, making experiments reproducible.
type Workload struct {
	Name   string
	Stages []string
	Tasks  []Task
}

// TotalTasks returns the task count.
func (w *Workload) TotalTasks() int { return len(w.Tasks) }

// TotalCores returns the peak core demand if all tasks ran concurrently.
func (w *Workload) TotalCores() int {
	n := 0
	for _, t := range w.Tasks {
		n += t.Cores
	}
	return n
}

// TotalDuration sums all task durations (serial compute time).
func (w *Workload) TotalDuration() time.Duration {
	var d time.Duration
	for _, t := range w.Tasks {
		d += t.Duration
	}
	return d
}

// CoreSeconds returns the expected compute demand Σ duration × cores, in
// core-seconds — the load unit the sharded environment's weighted placement
// and work stealing reason in, since a few wide long tasks load a shard far
// more than many small ones with the same task count.
func (w *Workload) CoreSeconds() float64 {
	var s float64
	for _, t := range w.Tasks {
		s += t.Duration.Seconds() * float64(t.Cores)
	}
	return s
}

// MeanDuration returns the mean task duration.
func (w *Workload) MeanDuration() time.Duration {
	if len(w.Tasks) == 0 {
		return 0
	}
	return w.TotalDuration() / time.Duration(len(w.Tasks))
}

// ExternalInputBytes totals the payload staged in from the origin.
func (w *Workload) ExternalInputBytes() int64 {
	var n int64
	for _, t := range w.Tasks {
		for _, f := range t.Inputs {
			if f.External() {
				n += f.Bytes
			}
		}
	}
	return n
}

// OutputBytes totals the payload staged back to the origin (final outputs).
func (w *Workload) OutputBytes() int64 {
	var n int64
	for _, t := range w.Tasks {
		n += t.OutputBytes()
	}
	return n
}

// StageTasks returns the tasks of one stage, in index order.
func (w *Workload) StageTasks(stage string) []Task {
	var out []Task
	for _, t := range w.Tasks {
		if t.Stage == stage {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Generate materializes the application with the given seed. Identical
// (spec, seed) pairs yield identical workloads. The tasks are one slice, and
// each stage's names and its own files (external inputs, outputs) one string
// and one slab, so a workload is a few objects per stage whatever its size.
func Generate(app AppSpec, seed int64) (*Workload, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	stages := app.expandIterations()
	w := &Workload{Name: app.Name}
	total := 0
	for _, st := range stages {
		total += st.Tasks
	}
	if total > 0 {
		w.Tasks = make([]Task, 0, total)
	}
	var prev []Task // previous stage's tasks

	for si, st := range stages {
		w.Stages = append(w.Stages, st.Name)
		cores := st.CoresPerTask
		if cores == 0 {
			cores = 1
		}
		durDist := st.DurationS.dist()
		outDist := st.OutputBytes.dist()
		inDist := st.InputBytes.dist()

		cur := w.Tasks[len(w.Tasks) : len(w.Tasks)+st.Tasks]
		names, files := newStageNames(st), stageFiles(st)
		for i := range cur {
			id, inName, outName := names.next(i)
			task := Task{ID: id, Stage: st.Name, Index: i, Cores: cores}

			// Inputs per the stage mapping.
			switch st.Inputs {
			case MapExternal:
				size := sampleSize(st.InputBytes, inDist, rng, 0, 0)
				files[0] = File{Name: inName, Bytes: size}
				task.Inputs, files = files[:1:1], files[1:]
			case MapOneToOne:
				p := prev[i%len(prev)]
				task.Inputs = inherit(p)
				task.Deps = []string{p.ID}
			case MapAllToAll:
				for _, p := range prev {
					task.Inputs = append(task.Inputs, inherit(p)...)
					task.Deps = append(task.Deps, p.ID)
				}
			case MapGather:
				// Partition predecessors evenly across this stage's tasks.
				lo := i * len(prev) / st.Tasks
				hi := (i + 1) * len(prev) / st.Tasks
				for _, p := range prev[lo:hi] {
					task.Inputs = append(task.Inputs, inherit(p)...)
					task.Deps = append(task.Deps, p.ID)
				}
			case MapScatter:
				// Each predecessor feeds a contiguous block of tasks.
				p := prev[i*len(prev)/st.Tasks]
				task.Inputs = inherit(p)
				task.Deps = []string{p.ID}
			}
			if si > 0 && st.Inputs != MapExternal && len(prev) == 0 {
				return nil, fmt.Errorf("skeleton: stage %q maps inputs but has no predecessor", st.Name)
			}

			// Duration: distributions sample directly; linear specs see the
			// input size.
			inBytes := task.InputBytes()
			durS := sampleSize(st.DurationS, durDist, rng, float64(inBytes), 0)
			if durS < 0 {
				durS = 0
			}
			task.Duration = time.Duration(float64(durS) * float64(time.Second))

			// Outputs: default one file; linear specs may see input size or
			// duration.
			if !st.OutputBytes.Zero() {
				size := sampleSize(st.OutputBytes, outDist, rng,
					float64(inBytes), task.Duration.Seconds())
				files[0] = File{Name: outName, Bytes: size, Producer: id}
				task.Outputs, files = files[:1:1], files[1:]
			}
			cur[i] = task
		}
		w.Tasks = w.Tasks[:len(w.Tasks)+st.Tasks]
		prev = cur
	}
	return w, nil
}

// stageNames cuts the IDs and file names of a stage's tasks from one string,
// in task order. Task i's part is its ID and ".in" if its input is external,
// then its ID and ".out" if it has an output, or its ID alone if neither.
type stageNames struct {
	rest, stage string
	ext, out    bool
}

func newStageNames(st StageSpec) stageNames {
	s := stageNames{stage: st.Name, ext: st.Inputs == MapExternal, out: !st.OutputBytes.Zero()}
	size := 0
	for i := range st.Tasks {
		n := s.idLen(i)
		if s.ext {
			size += n + len(".in")
		}
		if s.out {
			size += n + len(".out")
		}
		if !s.ext && !s.out {
			size += n
		}
	}
	var b strings.Builder
	b.Grow(size)
	for i := range st.Tasks {
		if s.ext {
			writeTaskID(&b, st.Name, i)
			b.WriteString(".in")
		}
		if s.out {
			writeTaskID(&b, st.Name, i)
			b.WriteString(".out")
		}
		if !s.ext && !s.out {
			writeTaskID(&b, st.Name, i)
		}
	}
	s.rest = b.String()
	return s
}

// writeTaskID writes the ID of task i of the named stage, as "%s.%05d"
// formats it.
func writeTaskID(b *strings.Builder, stage string, i int) {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(i), 10)
	b.WriteString(stage)
	b.WriteByte('.')
	for range 5 - len(d) {
		b.WriteByte('0')
	}
	b.Write(d)
}

// idLen is the length of task i's ID: the stage's name, a dot and the index
// in at least five digits.
func (s *stageNames) idLen(i int) int {
	n := len(s.stage) + 1 + 5
	for d := 100000; i >= d; d *= 10 {
		n++
	}
	return n
}

// next cuts task i's part off and returns its ID and its file names ("" for
// a file it does not have).
func (s *stageNames) next(i int) (id, in, out string) {
	n := s.idLen(i)
	id = s.rest[:n]
	if s.ext {
		in, s.rest = s.rest[:n+len(".in")], s.rest[n+len(".in"):]
	}
	if s.out {
		out, s.rest = s.rest[:n+len(".out")], s.rest[n+len(".out"):]
	}
	if !s.ext && !s.out {
		s.rest = s.rest[n:]
	}
	return id, in, out
}

// stageFiles returns the slab stage st's tasks take their external input and
// their output from, one File each.
func stageFiles(st StageSpec) []File {
	n := 0
	if st.Inputs == MapExternal {
		n += st.Tasks
	}
	if !st.OutputBytes.Zero() {
		n += st.Tasks
	}
	return make([]File, n)
}

// inherit converts a producer's outputs into consumer inputs.
func inherit(p Task) []File {
	files := make([]File, len(p.Outputs))
	copy(files, p.Outputs)
	return files
}

// sampleSize evaluates a spec: distribution specs sample (returns int64-ish
// float), linear specs evaluate against the provided context.
func sampleSize(spec Spec, d interface{ Sample(*rand.Rand) float64 }, rng *rand.Rand, inputBytes, durationS float64) int64 {
	if spec.Dist == "linear" {
		var of float64
		switch spec.Of {
		case "input_bytes":
			of = inputBytes
		case "duration_s":
			of = durationS
		}
		v := spec.Coeff*of + spec.Offset
		if v < 0 {
			v = 0
		}
		return int64(v)
	}
	if d == nil {
		return 0
	}
	v := d.Sample(rng)
	if v < 0 {
		v = 0
	}
	return int64(v)
}

// WriteShell emits the workload as a sequential shell script, the original
// tool's "shell commands executed in sequential order on a single machine"
// output mode. Task executables copy inputs, sleep for the duration, and
// write outputs.
func (w *Workload) WriteShell(out io.Writer) error {
	var b strings.Builder
	b.WriteString("#!/bin/sh\n")
	fmt.Fprintf(&b, "# skeleton application %q: %d tasks in %d stages\n",
		w.Name, len(w.Tasks), len(w.Stages))
	b.WriteString("set -e\nmkdir -p input output\n")
	for _, t := range w.Tasks {
		for _, f := range t.Inputs {
			if f.External() {
				fmt.Fprintf(&b, "head -c %d /dev/zero > input/%s\n", f.Bytes, f.Name)
			}
		}
	}
	for _, t := range w.Tasks {
		fmt.Fprintf(&b, "# task %s (stage %s)\n", t.ID, t.Stage)
		fmt.Fprintf(&b, "sleep %.3f", t.Duration.Seconds())
		for _, f := range t.Outputs {
			fmt.Fprintf(&b, " && head -c %d /dev/zero > output/%s", f.Bytes, f.Name)
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(out, b.String())
	return err
}

// WriteDOT emits the task dependency DAG in Graphviz format, analogous to
// the original tool's Pegasus DAG output mode.
func (w *Workload) WriteDOT(out io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n", w.Name)
	for _, t := range w.Tasks {
		fmt.Fprintf(&b, "  %q [label=%q];\n", t.ID,
			fmt.Sprintf("%s\\n%.0fs", t.ID, t.Duration.Seconds()))
	}
	for _, t := range w.Tasks {
		for _, dep := range t.Deps {
			fmt.Fprintf(&b, "  %q -> %q;\n", dep, t.ID)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(out, b.String())
	return err
}

// Summary returns a one-line description for logs and CLI output.
func (w *Workload) Summary() string {
	return fmt.Sprintf("%s: %d tasks, %d stages, mean task %.0fs, %.1f MB in / %.1f KB out",
		w.Name, len(w.Tasks), len(w.Stages), w.MeanDuration().Seconds(),
		float64(w.ExternalInputBytes())/(1<<20), float64(w.OutputBytes())/(1<<10))
}
