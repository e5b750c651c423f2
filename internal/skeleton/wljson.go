package skeleton

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// The middleware JSON interchange format — the original tool's output mode
// "(d) a JSON structure that must be used by a middleware that is designed
// to read it". WriteMiddlewareJSON and ParseWorkloadJSON round-trip a
// concrete workload losslessly, so a workload generated on one machine can
// be executed by an AIMES instance elsewhere.

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
// dependencies, for consumption by another middleware instance.
func (w *Workload) WriteMiddlewareJSON(out io.Writer) error {
	doc := wlJSON{Name: w.Name, Stages: w.Stages}
	for _, t := range w.Tasks {
		tj := wlTaskJSON{
			ID:        t.ID,
			Stage:     t.Stage,
			Index:     t.Index,
			Cores:     t.Cores,
			DurationS: t.Duration.Seconds(),
			Deps:      t.Deps,
		}
		for _, f := range t.Inputs {
			tj.Inputs = append(tj.Inputs, wlFileJSON{Name: f.Name, Bytes: f.Bytes, Producer: f.Producer})
		}
		for _, f := range t.Outputs {
			tj.Outputs = append(tj.Outputs, wlFileJSON{Name: f.Name, Bytes: f.Bytes, Producer: f.Producer})
		}
		doc.Tasks = append(doc.Tasks, tj)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ParseWorkloadJSON reads a workload previously written by
// WriteMiddlewareJSON, validating structural integrity (unique task IDs,
// resolvable dependencies, non-negative sizes).
func ParseWorkloadJSON(r io.Reader) (*Workload, error) {
	var doc wlJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("skeleton: parsing workload JSON: %w", err)
	}
	if doc.Name == "" {
		return nil, fmt.Errorf("skeleton: workload JSON needs a name")
	}
	if len(doc.Tasks) == 0 {
		return nil, fmt.Errorf("skeleton: workload %q has no tasks", doc.Name)
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
	convert := func(taskID, kind string, list []wlFileJSON) ([]File, error) {
		if len(list) == 0 {
			return nil, nil
		}
		first := len(slab)
		for _, f := range list {
			if f.Bytes < 0 {
				return nil, fmt.Errorf("skeleton: task %q %s %q has negative size", taskID, kind, f.Name)
			}
			slab = append(slab, File(f))
		}
		return slab[first:len(slab):len(slab)], nil
	}
	ids := make(map[string]bool, len(doc.Tasks))
	for _, tj := range doc.Tasks {
		if tj.ID == "" {
			return nil, fmt.Errorf("skeleton: task without id")
		}
		if ids[tj.ID] {
			return nil, fmt.Errorf("skeleton: duplicate task id %q", tj.ID)
		}
		ids[tj.ID] = true
		if tj.Cores <= 0 {
			return nil, fmt.Errorf("skeleton: task %q requests %d cores", tj.ID, tj.Cores)
		}
		if tj.DurationS < 0 {
			return nil, fmt.Errorf("skeleton: task %q has negative duration", tj.ID)
		}
		t := Task{
			ID:       tj.ID,
			Stage:    tj.Stage,
			Index:    tj.Index,
			Cores:    tj.Cores,
			Duration: time.Duration(math.Round(tj.DurationS * float64(time.Second))),
			Deps:     tj.Deps,
		}
		var err error
		if t.Inputs, err = convert(tj.ID, "input", tj.Inputs); err != nil {
			return nil, err
		}
		if t.Outputs, err = convert(tj.ID, "output", tj.Outputs); err != nil {
			return nil, err
		}
		w.Tasks = append(w.Tasks, t)
	}
	// Dependencies and producers must resolve.
	for _, t := range w.Tasks {
		for _, dep := range t.Deps {
			if !ids[dep] {
				return nil, fmt.Errorf("skeleton: task %q depends on unknown task %q", t.ID, dep)
			}
		}
		for _, f := range t.Inputs {
			if f.Producer != "" && !ids[f.Producer] {
				return nil, fmt.Errorf("skeleton: task %q input produced by unknown task %q", t.ID, f.Producer)
			}
		}
	}
	return w, nil
}
