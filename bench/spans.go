package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call bench made into a layer, or an interval that
// groups such calls (an epoch, a job). Times are nanoseconds since the
// tracer was created. Parent is the index of the span that caused this one,
// -1 for a root; spans of one job share its Job number.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
}

// tracer keeps spans and counts in memory until the run ends. A nil tracer
// records nothing, which is how the untraced run is the same code.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
	jobs   int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// begin opens a span now and returns its index.
func (t *tracer) begin(name string, parent, job int) int {
	if t == nil {
		return -1
	}
	return t.beginAt(name, parent, job, time.Now())
}

func (t *tracer) beginAt(name string, parent, job int, at time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: at.Sub(t.t0).Nanoseconds(), End: -1, Parent: parent, Job: job})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// newJob numbers the next job; spans of one job share the number.
func (t *tracer) newJob() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs++
	return t.jobs
}

// add adds x to a named count, taken at the same call sites as the spans so
// ratios are measured where the work happens.
func (t *tracer) add(name string, x float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += x
	t.mu.Unlock()
}

// per is count num divided by count den, 0 when den is 0.
func (t *tracer) per(num, den string) float64 {
	if t.counts[den] == 0 {
		return 0
	}
	return t.counts[num] / t.counts[den]
}

// durations returns the closed spans of one name, in the given unit, sorted.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	sort.Float64s(out)
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].a < ks[b].a })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			a, b := max(k.a, edge), min(k.b, s.End)
			if b > a {
				covered += b - a
				edge = b
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// write stores the spans, their per-name self times and the counts as JSON.
func (t *tracer) write(path string) error {
	self := map[string]float64{}
	for name, d := range t.selfTimes() {
		self[name] = float64(d) / float64(time.Millisecond)
	}
	data, err := json.Marshal(struct {
		SelfMS map[string]float64 `json:"self_ms"`
		Counts map[string]float64 `json:"counts"`
		Spans  []span             `json:"spans"`
	}{self, t.counts, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
