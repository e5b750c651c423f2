// Package skeleton reimplements the paper's Application Skeleton tool: a
// declarative description of a many-task application — stages, task counts,
// task-duration and file-size distributions, inter-stage data mappings and
// iteration blocks — from which concrete, reproducible workloads are
// generated. Skeletons replace real applications (Montage, BLAST,
// CyberShake) that are hard to obtain, scale and share, while preserving
// their distributed-execution properties.
package skeleton

import (
	"encoding/json"
	"fmt"
	"io"

	"aimes/internal/stats"
)

// Mapping describes how a stage's tasks obtain their input files.
type Mapping string

// Supported inter-stage data mappings.
const (
	// MapExternal stages fresh input files from the user's origin (first
	// stages, bag-of-tasks).
	MapExternal Mapping = "external"
	// MapOneToOne wires task i to the output of predecessor task i (modulo
	// the predecessor count when sizes differ).
	MapOneToOne Mapping = "one-to-one"
	// MapAllToAll wires every task to all predecessor outputs (reduce with
	// full shuffle).
	MapAllToAll Mapping = "all-to-all"
	// MapGather partitions predecessor outputs evenly across this stage's
	// tasks (many-to-few reduction).
	MapGather Mapping = "gather"
	// MapScatter wires each predecessor output to a contiguous block of this
	// stage's tasks (few-to-many fan-out).
	MapScatter Mapping = "scatter"
)

func (m Mapping) valid() bool {
	switch m {
	case MapExternal, MapOneToOne, MapAllToAll, MapGather, MapScatter:
		return true
	}
	return false
}

// Spec is a declarative scalar specification: either a statistical
// distribution or a linear function of another task property, mirroring the
// original tool's "task lengths and file sizes can be statistical
// distributions or polynomial functions of other parameters".
type Spec struct {
	// Dist selects the form: "constant", "uniform", "normal", "truncnormal",
	// "lognormal", or "linear".
	Dist string `json:"dist"`
	// Value is the constant value for "constant".
	Value float64 `json:"value,omitempty"`
	// Min/Max bound "uniform" and truncate "truncnormal".
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// Mean/Stdev parameterize "normal" and "truncnormal".
	Mean  float64 `json:"mean,omitempty"`
	Stdev float64 `json:"stdev,omitempty"`
	// Median/Sigma parameterize "lognormal".
	Median float64 `json:"median,omitempty"`
	Sigma  float64 `json:"sigma,omitempty"`
	// Of names the independent variable for "linear": "input_bytes" or
	// "duration_s". The result is Coeff×of + Offset.
	Of     string  `json:"of,omitempty"`
	Coeff  float64 `json:"coeff,omitempty"`
	Offset float64 `json:"offset,omitempty"`
}

// Zero reports whether the spec is unset.
func (s Spec) Zero() bool { return s.Dist == "" }

// Validate reports a descriptive error for malformed specs.
func (s Spec) Validate() error {
	switch s.Dist {
	case "constant":
		return nil
	case "uniform":
		if s.Max < s.Min {
			return fmt.Errorf("skeleton: uniform bounds inverted [%g, %g]", s.Min, s.Max)
		}
	case "normal":
		if s.Stdev < 0 {
			return fmt.Errorf("skeleton: negative stdev %g", s.Stdev)
		}
	case "truncnormal":
		if s.Stdev < 0 {
			return fmt.Errorf("skeleton: negative stdev %g", s.Stdev)
		}
		if s.Max < s.Min {
			return fmt.Errorf("skeleton: truncnormal bounds inverted [%g, %g]", s.Min, s.Max)
		}
	case "lognormal":
		if s.Median <= 0 {
			return fmt.Errorf("skeleton: lognormal median %g must be positive", s.Median)
		}
		if s.Sigma < 0 {
			return fmt.Errorf("skeleton: negative sigma %g", s.Sigma)
		}
	case "linear":
		if s.Of != "input_bytes" && s.Of != "duration_s" {
			return fmt.Errorf("skeleton: linear spec of unknown variable %q", s.Of)
		}
	case "":
		return fmt.Errorf("skeleton: empty spec")
	default:
		return fmt.Errorf("skeleton: unknown distribution %q", s.Dist)
	}
	return nil
}

// dist converts distribution-form specs to a stats.Dist; linear specs return
// nil and are evaluated against task context in the generator.
func (s Spec) dist() stats.Dist {
	switch s.Dist {
	case "constant":
		return stats.NewConstant(s.Value)
	case "uniform":
		return stats.NewUniform(s.Min, s.Max)
	case "normal":
		return stats.NewNormal(s.Mean, s.Stdev)
	case "truncnormal":
		return stats.NewTruncNormal(s.Mean, s.Stdev, s.Min, s.Max)
	case "lognormal":
		return stats.LogNormalFromMedian(s.Median, s.Sigma)
	default:
		return nil
	}
}

// Constant is shorthand for a constant spec.
func Constant(v float64) Spec { return Spec{Dist: "constant", Value: v} }

// TruncNormal is shorthand for a truncated-normal spec.
func TruncNormal(mean, stdev, min, max float64) Spec {
	return Spec{Dist: "truncnormal", Mean: mean, Stdev: stdev, Min: min, Max: max}
}

// Uniform is shorthand for a uniform spec.
func Uniform(min, max float64) Spec { return Spec{Dist: "uniform", Min: min, Max: max} }

// LinearOf is shorthand for a linear spec: coeff×of + offset.
func LinearOf(of string, coeff, offset float64) Spec {
	return Spec{Dist: "linear", Of: of, Coeff: coeff, Offset: offset}
}

// StageSpec declares one application stage.
type StageSpec struct {
	// Name identifies the stage; defaults to "stage-<index>".
	Name string `json:"name"`
	// Tasks is the task count; for MapScatter it may be a multiple of the
	// predecessor's count.
	Tasks int `json:"tasks"`
	// DurationS specifies task durations in seconds.
	DurationS Spec `json:"duration_s"`
	// InputBytes specifies per-input-file sizes (external inputs or, for
	// mapped inputs, ignored in favor of producer output sizes).
	InputBytes Spec `json:"input_bytes,omitempty"`
	// OutputBytes specifies per-task output file sizes.
	OutputBytes Spec `json:"output_bytes"`
	// Inputs selects the data mapping; defaults to MapExternal for the first
	// stage and MapOneToOne otherwise.
	Inputs Mapping `json:"inputs,omitempty"`
	// CoresPerTask defaults to 1 (the paper's experiments are single-core).
	CoresPerTask int `json:"cores_per_task,omitempty"`
}

// IterationSpec repeats a contiguous block of stages. The last stage of
// iteration k feeds the first stage of iteration k+1 one-to-one, expressing
// iterative map-reduce and iterative multistage workflows.
type IterationSpec struct {
	// Stages names the contiguous block to iterate.
	Stages []string `json:"stages"`
	// Count is the total number of iterations (1 = no repetition).
	Count int `json:"count"`
}

// AppSpec declares a complete skeleton application.
type AppSpec struct {
	// Name identifies the application.
	Name string `json:"name"`
	// Stages in execution order.
	Stages []StageSpec `json:"stages"`
	// Iterations optionally repeat stage blocks.
	Iterations []IterationSpec `json:"iterations,omitempty"`
}

// Validate reports a descriptive error for malformed applications.
func (a AppSpec) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("skeleton: application needs a name")
	}
	if len(a.Stages) == 0 {
		return fmt.Errorf("skeleton: application %q has no stages", a.Name)
	}
	names := map[string]int{}
	for i, st := range a.Stages {
		name := st.Name
		if name == "" {
			name = fmt.Sprintf("stage-%d", i)
		}
		if _, dup := names[name]; dup {
			return fmt.Errorf("skeleton: duplicate stage name %q", name)
		}
		names[name] = i
		if st.Tasks <= 0 {
			return fmt.Errorf("skeleton: stage %q has %d tasks", name, st.Tasks)
		}
		if st.CoresPerTask < 0 {
			return fmt.Errorf("skeleton: stage %q has negative cores per task", name)
		}
		if err := st.DurationS.Validate(); err != nil {
			return fmt.Errorf("stage %q duration: %w", name, err)
		}
		if !st.OutputBytes.Zero() {
			if err := st.OutputBytes.Validate(); err != nil {
				return fmt.Errorf("stage %q output: %w", name, err)
			}
		}
		if !st.InputBytes.Zero() {
			if err := st.InputBytes.Validate(); err != nil {
				return fmt.Errorf("stage %q input: %w", name, err)
			}
		}
		mapping := st.Inputs
		if mapping == "" {
			continue
		}
		if !mapping.valid() {
			return fmt.Errorf("skeleton: stage %q has unknown mapping %q", name, mapping)
		}
		if i == 0 && mapping != MapExternal {
			return fmt.Errorf("skeleton: first stage %q must use external inputs", name)
		}
	}
	for _, it := range a.Iterations {
		if it.Count <= 0 {
			return fmt.Errorf("skeleton: iteration count %d must be positive", it.Count)
		}
		if len(it.Stages) == 0 {
			return fmt.Errorf("skeleton: iteration block with no stages")
		}
		prev := -1
		for _, sn := range it.Stages {
			idx, ok := names[sn]
			if !ok {
				return fmt.Errorf("skeleton: iteration references unknown stage %q", sn)
			}
			if prev >= 0 && idx != prev+1 {
				return fmt.Errorf("skeleton: iteration block %v is not contiguous", it.Stages)
			}
			prev = idx
		}
	}
	return nil
}

// ParseJSON reads an AppSpec from JSON.
func ParseJSON(r io.Reader) (AppSpec, error) {
	var app AppSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&app); err != nil {
		return AppSpec{}, fmt.Errorf("skeleton: parsing JSON: %w", err)
	}
	if err := app.Validate(); err != nil {
		return AppSpec{}, err
	}
	return app, nil
}

// BagOfTasks returns the paper's experimental workload: a single stage of n
// single-core tasks with the given duration spec, a 1 MB input file and a
// 2 KB output file per task.
func BagOfTasks(n int, duration Spec) AppSpec {
	return AppSpec{
		Name: fmt.Sprintf("bot-%d", n),
		Stages: []StageSpec{{
			Name:        "stage-0",
			Tasks:       n,
			DurationS:   duration,
			InputBytes:  Constant(1 << 20), // 1 MB in
			OutputBytes: Constant(2 << 10), // 2 KB out
			Inputs:      MapExternal,
		}},
	}
}

// UniformDuration returns the paper's 15-minute constant task duration.
func UniformDuration() Spec { return Constant(15 * 60) }

// GaussianDuration returns the paper's truncated Gaussian task duration:
// mean 15 min, stdev 5 min, bounds [1, 30] min.
func GaussianDuration() Spec { return TruncNormal(15*60, 5*60, 60, 30*60) }

// normalizeStageName fills defaulted stage names.
func normalizeStageName(i int, s StageSpec) string {
	if s.Name != "" {
		return s.Name
	}
	return fmt.Sprintf("stage-%d", i)
}

// stageMapping fills defaulted mappings.
func stageMapping(i int, s StageSpec) Mapping {
	if s.Inputs != "" {
		return s.Inputs
	}
	if i == 0 {
		return MapExternal
	}
	return MapOneToOne
}

// expandIterations unrolls iteration blocks into a flat stage list. Stage
// names gain an ".it<k>" suffix for k > 0; the first stage of each later
// iteration switches to one-to-one consumption of the previous iteration's
// last stage.
func (a AppSpec) expandIterations() []StageSpec {
	iterOf := map[string]int{}
	blockOf := map[string][]string{}
	for _, it := range a.Iterations {
		for _, sn := range it.Stages {
			iterOf[sn] = it.Count
			blockOf[sn] = it.Stages
		}
	}
	var out []StageSpec
	i := 0
	for i < len(a.Stages) {
		st := a.Stages[i]
		name := normalizeStageName(i, st)
		count, iterated := iterOf[name]
		if !iterated || count <= 1 {
			st.Name = name
			st.Inputs = stageMapping(i, st)
			out = append(out, st)
			i++
			continue
		}
		block := blockOf[name]
		for k := 0; k < count; k++ {
			for b := 0; b < len(block); b++ {
				st := a.Stages[i+b]
				st.Name = normalizeStageName(i+b, st)
				st.Inputs = stageMapping(i+b, st)
				if k > 0 {
					if b == 0 {
						// Later iterations consume the previous iteration's
						// output instead of external data.
						st.Inputs = MapOneToOne
					}
					st.Name = fmt.Sprintf("%s.it%d", st.Name, k)
				}
				out = append(out, st)
			}
		}
		i += len(block)
	}
	return out
}
