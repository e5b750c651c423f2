package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary host the fleet workload's worker children,
// as main does for the bench binary.
func TestMain(m *testing.M) {
	childMain()
	os.Exit(m.Run())
}

// miniature is the workload at one epoch per round.
func miniature(w *workload) *workload {
	mini := *w
	mini.epochs = 1
	return &mini
}

// TestMiniatureRuns runs one one-epoch round of every workload: each
// completes, verifies every job (the round warms up on the epoch it then
// measures, so pinned workloads are checked bit for bit), and reports every
// end-to-end metric.
func TestMiniatureRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runEndToEnd(miniature(w), devSeed, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.metrics["done_share"] != 1 {
				t.Fatalf("%d of %d jobs failed verification (done_share %v): %s",
					res.failed, res.attempted, res.metrics["done_share"], res.firstMiss)
			}
			for _, m := range endToEnd {
				if v, ok := res.metrics[m.Name]; !ok || v <= 0 {
					t.Errorf("%s = %v, want a positive value", m.Name, v)
				}
			}
		})
	}
}

// TestTracedRunFillsLedger runs the traced stages on the HTTP workload (the
// one that also needs the in-process round) and wants every per-layer row.
func TestTracedRunFillsLedger(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.json")
	res, err := runTraced(miniature(findWorkload("service-stream")), devSeed, 1, spans, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d of %d jobs failed verification: %s", res.failed, res.attempted, res.firstMiss)
	}
	for _, m := range perLayer {
		if _, ok := res.metrics[m.Name]; !ok {
			t.Errorf("traced run did not report %s", m.Name)
		}
	}
	for _, name := range []string{"sim.events_per_job", "trace.records_per_job", "backend.round_trips_per_job", "client.requests_per_job", "server.sse_events_per_job"} {
		if res.metrics[name] <= 0 {
			t.Errorf("%s = %v, want a positive count", name, res.metrics[name])
		}
	}
	var out struct {
		Spans []span `json:"spans"`
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &out); err != nil || len(out.Spans) == 0 {
		t.Fatalf("span file: %d spans, err %v", len(out.Spans), err)
	}
}

// TestLedgerMatchesBenchmarkJSON keeps BENCHMARK.json and the tables in
// metrics.go and workloads.go the same, and every name well-formed.
func TestLedgerMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []row    `json:"workloads"`
		EndToEnd   []row    `json:"end_to_end"`
		PerLayer   []row    `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(manifest.Command, " "); got != "go run ./bench" {
		t.Errorf("command = %q", got)
	}
	if len(manifest.Paths) != 1 || manifest.Paths[0] != "bench" {
		t.Errorf("paths = %v", manifest.Paths)
	}
	if manifest.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %v", manifest.RunSeconds, defaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	wellFormed := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not well-formed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		wellFormed(w.name)
		if got := manifest.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind string, got []row, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, m := range want {
			wellFormed(m.Name)
			g := got[i]
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is not well-formed", m.Name, m.Unit)
			}
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s, %s], the program %s [%s, %s]",
					kind, i, g.Name, g.Unit, g.Better, m.Name, m.Unit, m.Better)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the program; want the same, in (0, 0.25]", m.Name, g.Bound, m.Bound)
			case bounded && (m.Paired < 0 || m.Paired > m.Bound):
				t.Errorf("%s: paired bound %v; same-seed pairs are no noisier than runs of different seeds, want it in [0, %v]", m.Name, m.Paired, m.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	check("end-to-end", manifest.EndToEnd, endToEnd, true)
	check("per-layer", manifest.PerLayer, perLayer, false)
}

// TestRunLeavesTreeClean: a run through the command-line entry point, with
// no -out, changes nothing git can see.
func TestRunLeavesTreeClean(t *testing.T) {
	status := func() string {
		out, err := exec.Command("git", "status", "--porcelain").Output()
		if err != nil {
			t.Skipf("not a usable git checkout: %v", err)
		}
		return string(out)
	}
	before := status()
	w := findWorkload("paper-matrix")
	saved := w.epochs
	w.epochs = 1
	defer func() { w.epochs = saved }()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last lastLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !last.Correct || last.Attempted < 1 || last.Failed != 0 || len(last.Metrics) != len(endToEnd) {
		t.Errorf("last line: %+v", last)
	}
	if after := status(); after != before {
		t.Errorf("git status changed:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestCompareVerdicts: runs are paired by seed, so a spread between seeds
// far wider than the bound does not hide a shift, and a spread between the
// pairs' changes does.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rounds int, jobsPerS []float64) string {
		path := filepath.Join(dir, name)
		for i, v := range jobsPerS {
			rec := record{Workload: "paper-matrix", Seed: int64(i), Rounds: rounds,
				Metrics: map[string]metricValue{"jobs_per_s": {Value: v, Unit: "1/s"}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base", 16, []float64{100, 150, 80, 120, 200})
	for _, tc := range []struct {
		name    string
		rounds  int
		values  []float64
		verdict string
		code    int
	}{
		{"steady", 16, []float64{99, 151, 80.5, 119, 202}, "same", 0},
		{"faster", 16, []float64{130, 190, 85, 121, 260}, "same", 0},
		{"slower", 16, []float64{85, 128, 69, 100, 171}, "worse", 1},
		{"noisy", 16, []float64{70, 200, 75, 140, 170}, "unresolved", 1},
		{"other-inputs", 8, []float64{100, 150, 80, 120, 200}, "", 2},
	} {
		var out, errs bytes.Buffer
		code := compareFiles(base, write(tc.name, tc.rounds, tc.values), &out, &errs)
		if code != tc.code || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: exit %d, output\n%s%s\nwant exit %d and verdict %q", tc.name, code, out.String(), errs.String(), tc.code, tc.verdict)
		}
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	closeAt := func(id, ms int) { tr.spans[id].End = int64(ms) * int64(time.Millisecond) }
	job := tr.beginAt("job", -1, 1, at(0))
	a := tr.beginAt("call", job, 1, at(10))
	b := tr.beginAt("call", job, 1, at(30)) // overlaps a for 10 ms
	closeAt(a, 40)
	closeAt(b, 60)
	closeAt(job, 100)
	self := tr.selfTimes()
	if self["job"] != 50*time.Millisecond || self["call"] != 60*time.Millisecond {
		t.Errorf("self times = %v, want job 50ms and call 60ms", self)
	}
}
