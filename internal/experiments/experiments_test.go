package experiments

import (
	"bytes"
	"context"
	"encoding/csv"
	"strings"
	"testing"
	"time"

	"aimes"
	"aimes/internal/core"
	"aimes/internal/site"
)

// TestHarnessIsTheEnvironment: the harness has no stack of its own. A run's
// result is, field for field, the report of the same workload and strategy
// configuration submitted by hand to an environment of the run's seed.
func TestHarnessIsTheEnvironment(t *testing.T) {
	for _, def := range TableI {
		spec := RunSpec{Exp: def, NTasks: 64, Rep: 1}
		got := Run(spec)
		if got.Err != "" {
			t.Fatalf("exp %d: %s", def.ID, got.Err)
		}

		env, err := aimes.NewEnv(aimes.WithSeed(spec.seed()))
		if err != nil {
			t.Fatal(err)
		}
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(64, def.Duration.Spec()), spec.seed())
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.Submit(context.Background(), w, aimes.JobConfig{StrategyConfig: def.StrategyConfig()})
		if err != nil {
			t.Fatal(err)
		}
		report, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		env.Close()

		want := Result{Exp: def.ID, Label: def.Label(), NTasks: 64, Rep: 1}
		want.fill(report)
		if got != want {
			t.Errorf("exp %d: the harness reports\n%+v\nthe environment\n%+v", def.ID, got, want)
		}
	}
}

func TestTableIDefinitions(t *testing.T) {
	if len(TableI) != 4 {
		t.Fatalf("TableI has %d experiments, want 4", len(TableI))
	}
	want := []struct {
		binding core.Binding
		sched   core.SchedulerKind
		pilots  int
		dur     DurationKind
	}{
		{core.EarlyBinding, core.SchedDirect, 1, Uniform15m},
		{core.EarlyBinding, core.SchedDirect, 1, TruncGaussian},
		{core.LateBinding, core.SchedBackfill, 3, Uniform15m},
		{core.LateBinding, core.SchedBackfill, 3, TruncGaussian},
	}
	for i, d := range TableI {
		if d.ID != i+1 || d.Binding != want[i].binding || d.Scheduler != want[i].sched ||
			d.Pilots != want[i].pilots || d.Duration != want[i].dur {
			t.Fatalf("experiment %d = %+v", i+1, d)
		}
	}
	if _, err := Experiment(3); err != nil {
		t.Fatal(err)
	}
	if _, err := Experiment(9); err == nil {
		t.Fatal("unknown experiment found")
	}
}

func TestSizesArePowersOfTwo(t *testing.T) {
	if len(Sizes) != 9 || Sizes[0] != 8 || Sizes[8] != 2048 {
		t.Fatalf("Sizes = %v", Sizes)
	}
	for i := 1; i < len(Sizes); i++ {
		if Sizes[i] != 2*Sizes[i-1] {
			t.Fatalf("Sizes not doubling: %v", Sizes)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	def, _ := Experiment(3)
	res := Run(RunSpec{Exp: def, NTasks: 16, Rep: 0})
	if res.Err != "" {
		t.Fatalf("run failed: %s", res.Err)
	}
	if res.UnitsDone != 16 || res.UnitsFailed != 0 {
		t.Fatalf("units: %d done %d failed", res.UnitsDone, res.UnitsFailed)
	}
	if res.TTC <= 0 || res.Tw <= 0 || res.Tx <= 0 || res.Ts <= 0 {
		t.Fatalf("degenerate components: %+v", res)
	}
	if res.TTC >= res.Tw+res.Tx+res.Ts {
		t.Fatal("components do not overlap")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	def, _ := Experiment(1)
	a := Run(RunSpec{Exp: def, NTasks: 8, Rep: 2})
	b := Run(RunSpec{Exp: def, NTasks: 8, Rep: 2})
	if a.TTC != b.TTC || a.Tw != b.Tw || a.Tx != b.Tx || a.Ts != b.Ts {
		t.Fatalf("same spec differed: %+v vs %+v", a, b)
	}
	c := Run(RunSpec{Exp: def, NTasks: 8, Rep: 3})
	if a.TTC == c.TTC && a.Tw == c.Tw {
		t.Fatal("different reps produced identical results")
	}
}

func TestRunAllParallelMatchesSerial(t *testing.T) {
	def, _ := Experiment(4)
	specs := []RunSpec{
		{Exp: def, NTasks: 8, Rep: 0},
		{Exp: def, NTasks: 8, Rep: 1},
		{Exp: def, NTasks: 16, Rep: 0},
	}
	parallel := RunAll(specs, 3)
	serial := RunAll(specs, 1)
	for i := range specs {
		if parallel[i].TTC != serial[i].TTC {
			t.Fatalf("spec %d: parallel %.1f != serial %.1f", i, parallel[i].TTC, serial[i].TTC)
		}
	}
}

func TestMatrixEnumeration(t *testing.T) {
	specs := Matrix(TableI, []int{8, 16}, 3)
	if len(specs) != 4*2*3 {
		t.Fatalf("matrix size %d, want 24", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		key := s.Exp.Label() + string(rune(s.NTasks)) + string(rune(s.Rep))
		if seen[key] {
			t.Fatal("duplicate spec in matrix")
		}
		seen[key] = true
	}
}

func TestAggregateAndEmitters(t *testing.T) {
	specs := Matrix(TableI, []int{8, 16}, 2)
	results := RunAll(specs, 0)
	agg := Aggregate(results)
	for exp := 1; exp <= 4; exp++ {
		for _, n := range []int{8, 16} {
			cell := agg[exp][n]
			if cell == nil || cell.N != 2 {
				t.Fatalf("cell (%d, %d) = %+v", exp, n, cell)
			}
		}
	}

	var buf bytes.Buffer
	if err := WriteTableI(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "backfill") || !strings.Contains(buf.String(), "(Tx+Ts+Trp)*3") {
		t.Fatalf("Table I output:\n%s", buf.String())
	}

	buf.Reset()
	if err := WriteFigure2(&buf, agg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "exp1") || !strings.Contains(out, "exp4") {
		t.Fatalf("Figure 2 output:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 2+2 {
		t.Fatalf("Figure 2 rows wrong:\n%s", out)
	}

	buf.Reset()
	if err := WriteFigure3(&buf, agg, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Late Uniform 3 Pilots") {
		t.Fatalf("Figure 3 output:\n%s", buf.String())
	}
	if err := WriteFigure3(&buf, agg, 7); err == nil {
		t.Fatal("missing experiment accepted")
	}

	buf.Reset()
	if err := WriteFigure4(&buf, agg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 4(a)") || !strings.Contains(buf.String(), "Figure 4(b)") {
		t.Fatalf("Figure 4 output:\n%s", buf.String())
	}

	buf.Reset()
	if err := WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(results)+1 {
		t.Fatalf("CSV rows = %d, want %d", len(lines), len(results)+1)
	}
}

// TestWriteCSVQuotesFreeText: a failed run's error text — here with a comma,
// a quote and a line break, as Execution.IncompleteError's state maps have —
// stays one field of its record.
func TestWriteCSVQuotesFreeText(t *testing.T) {
	failed := Result{Exp: 3, Label: "Late Uniform 3 Pilots", NTasks: 8, Rep: 2,
		Err: "core: engine drained but workload incomplete (pilots map[ACTIVE:1, \"FAILED\":2],\nunits map[NEW:8])"}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []Result{{Exp: 1, Label: "Early Uniform 1 Pilot", NTasks: 8, TTC: 1234.56}, failed}); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll() // rejects a record whose field count differs from the header's
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if len(records) != 3 || len(records[0]) != 15 {
		t.Fatalf("%d records of %d fields, want 3 of 15", len(records), len(records[0]))
	}
	if got := records[1][4]; got != "1234.6" {
		t.Errorf("ttc_s = %q, want 1234.6", got)
	}
	if got := records[2]; got[1] != failed.Label || got[14] != failed.Err {
		t.Errorf("the failed run read back as label %q, err %q", got[1], got[14])
	}
}

func TestAggregateCountsFailures(t *testing.T) {
	results := []Result{
		{Exp: 1, NTasks: 8, TTC: 100},
		{Exp: 1, NTasks: 8, Err: "boom"},
		{Exp: 1, NTasks: 8, TTC: 200, UnitsFailed: 1},
	}
	agg := Aggregate(results)
	cell := agg[1][8]
	if cell.N != 1 || cell.Failures != 2 {
		t.Fatalf("cell = %+v", cell)
	}
}

func TestCheckShapeDetectsViolations(t *testing.T) {
	// Construct a pathological aggregate: late slower than early everywhere.
	results := []Result{}
	for _, n := range []int{8, 16, 32} {
		for rep := 0; rep < 2; rep++ {
			results = append(results,
				Result{Exp: 1, NTasks: n, Rep: rep, TTC: 1000, Tw: 800, Tx: 300, Ts: 10 + float64(rep)},
				Result{Exp: 3, NTasks: n, Rep: rep, TTC: 5000 + float64(100*rep), Tw: 4000, Tx: 300, Ts: 10},
			)
		}
	}
	violations := CheckShape(Aggregate(results))
	if len(violations) == 0 {
		t.Fatal("pathological data passed shape check")
	}
	found := false
	for _, v := range violations {
		if strings.Contains(v, "not beating") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected crossover violation, got %v", violations)
	}
}

func TestDurationKinds(t *testing.T) {
	if Uniform15m.String() != "uniform" || TruncGaussian.String() != "gaussian" ||
		LognormalDuration.String() != "lognormal" {
		t.Fatal("duration kind strings wrong")
	}
	for _, k := range []DurationKind{Uniform15m, TruncGaussian, LognormalDuration} {
		if err := k.Spec().Validate(); err != nil {
			t.Fatalf("%v spec invalid: %v", k, err)
		}
	}
}

func TestLabelFormatting(t *testing.T) {
	d, _ := Experiment(1)
	if d.Label() != "Early Uniform 1 Pilot" {
		t.Fatalf("label = %q", d.Label())
	}
	d, _ = Experiment(4)
	if d.Label() != "Late Gaussian 3 Pilots" {
		t.Fatalf("label = %q", d.Label())
	}
}

// TestPaperShapeSmall is the end-to-end shape check on a reduced matrix —
// the full matrix runs in the benchmark harness.
func TestPaperShapeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("shape check needs repetitions")
	}
	specs := Matrix(TableI, []int{64, 256, 1024}, 8)
	results := RunAll(specs, 0)
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("run (exp %d, n %d, rep %d) failed: %s", r.Exp, r.NTasks, r.Rep, r.Err)
		}
	}
	agg := Aggregate(results)
	if violations := CheckShape(agg); len(violations) > 0 {
		var buf bytes.Buffer
		_ = WriteFigure2(&buf, agg)
		t.Fatalf("shape violations: %v\n%s", violations, buf.String())
	}
}

func TestRunSpecAdaptive(t *testing.T) {
	def := Definition{
		ID: 99, Duration: Uniform15m,
		Binding: core.LateBinding, Scheduler: core.SchedBackfill, Pilots: 1,
	}
	res := Run(RunSpec{Exp: def, NTasks: 8, Rep: 0, PrimeHistory: 64,
		Adaptive: &core.AdaptiveConfig{Patience: 10 * time.Minute, MaxExtraPilots: 2}})
	if res.Err != "" {
		t.Fatalf("adaptive run failed: %s", res.Err)
	}
	if res.UnitsDone != 8 {
		t.Fatalf("done = %d", res.UnitsDone)
	}
	if res.Label != "Late Uniform 1 Pilot adaptive" {
		t.Fatalf("label = %q", res.Label)
	}
}

func TestRunWithAutoPilots(t *testing.T) {
	def, _ := Experiment(3)
	sel := core.SelectByPredictedWait
	res := Run(RunSpec{
		Exp: def, NTasks: 16, Rep: 0, PrimeHistory: 64,
		AutoPilots: true, Selection: &sel,
	})
	if res.Err != "" {
		t.Fatalf("auto-pilot run failed: %s", res.Err)
	}
	if res.UnitsDone != 16 {
		t.Fatalf("done = %d", res.UnitsDone)
	}
}

// TestRunEmergentWarmup: an emergent testbed gets the environment's warm-up
// (backend.NewLocal's rule; the harness has none of its own) and runs.
func TestRunEmergentWarmup(t *testing.T) {
	def, _ := Experiment(3)
	emergent := site.EmergentTestbed(site.DefaultTestbed(), 0.85)
	res := Run(RunSpec{Exp: def, NTasks: 8, Rep: 0, Sites: emergent})
	if res.Err != "" {
		t.Fatalf("emergent run failed: %s", res.Err)
	}
	if res.UnitsDone != 8 {
		t.Fatalf("done = %d", res.UnitsDone)
	}
}

func TestResultFillCoversMetrics(t *testing.T) {
	def, _ := Experiment(1)
	res := Run(RunSpec{Exp: def, NTasks: 8, Rep: 1})
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	if res.CoreHours <= 0 || res.Efficiency <= 0 || res.Throughput <= 0 {
		t.Fatalf("metrics missing: %+v", res)
	}
}
