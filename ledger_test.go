package aimes_test

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"

	"aimes"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/alloc_ledger.txt from this run")

// ledgerPath is the committed allocation ledger: objects per job, by shape
// and by the package of the innermost frame inside module aimes.
const ledgerPath = "testdata/alloc_ledger.txt"

// ledgerShapes are the job shapes of the allocation pins — a small job,
// where what a job pays per pilot and per execution shows, and a 512-unit
// job, where what it pays per unit does, each on a fresh one-shard
// environment — and the service path's job, BenchmarkServiceJobSSE's. Each
// runs warm jobs one at a time.
var ledgerShapes = []ledgerShape{
	{"16x2", 200, localJob(16, 2)},
	{"512x3", 20, localJob(512, 3)},
	{"service", 200, serviceJob},
}

type ledgerShape struct {
	name string
	jobs int
	// open sets the shape up and returns one job's run and what tears the
	// set-up down.
	open func(testing.TB) (run, teardown func())
}

// Two rows name no package. The runtime records a small pointer-free
// object (a short string) only when it opens a new 16-byte block for it,
// not when it fits in the block already open, so the package rows count
// those blocks, and tinyRow holds the rest: the job's objects as
// runtime.MemStats counts them less every recorded one. outsideRow is what
// was recorded with no frame of the module on its stack, the runtime's own
// work; it is shown, not compared, and a shape's total is its other rows.
const (
	tinyRow    = "(tiny)"
	outsideRow = "(outside)"
)

// How far a number may move before it counts. A shape's total repeats to a
// tenth of an object per job. Which package opens the runtime's next
// small-object block can move up to one object per job between two
// packages from one run to the next, so a package's row may move a little
// more than that, and the total catches what a row's slack lets through.
const (
	totalSlack = 0.25
	rowSlack   = 1.25
)

// TestAllocationLedger records every allocation of a run of jobs
// (runtime.MemProfileRate = 1), gives each to the innermost frame of its
// stack inside module aimes, and compares the objects per job of each
// package, and their total, with the committed ledger; a shape's rows sum
// to its objects per job. A rise fails with the numbers that moved; so does
// a fall, which asks for the ledger to be rewritten with -update. Under
// -race the pools drop what they are given and the counts mean nothing, so
// it skips.
func TestAllocationLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops puts")
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	got := map[string]float64{}
	for _, s := range ledgerShapes {
		for pkg, n := range ledgerRun(t, s) {
			got[s.name+" "+pkg] = n
		}
	}
	text := formatLedger(got)
	if *updateLedger {
		if err := os.WriteFile(ledgerPath, text, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s:\n%s", ledgerPath, text)
		return
	}
	data, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("%v (go test -run TestAllocationLedger -update . writes it)", err)
	}
	want, err := parseLedger(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(toolchainLine())) {
		t.Skipf("%s was not measured with %s, whose runtime and standard library allocate as they do", ledgerPath, goMinor())
	}
	var rose, fell []string
	compare := func(row string, g, w, slack float64) {
		switch {
		case g > w+slack:
			rose = append(rose, fmt.Sprintf("%-28s %8.2f → %8.2f", row, w, g))
		case g < w-slack:
			fell = append(fell, fmt.Sprintf("%-28s %8.2f → %8.2f", row, w, g))
		}
	}
	for _, row := range ledgerRows(got, want) {
		if !strings.HasSuffix(row, " "+outsideRow) {
			compare(row, got[row], want[row], rowSlack)
		}
	}
	gotTotal, wantTotal := ledgerTotals(got), ledgerTotals(want)
	for _, s := range ledgerShapes {
		compare(s.name+" total", gotTotal[s.name], wantTotal[s.name], totalSlack)
	}
	if len(rose) > 0 {
		t.Errorf("objects per job rose (shape, package, ledger → now):\n%s", strings.Join(rose, "\n"))
	}
	if len(fell) > 0 {
		t.Errorf("objects per job fell; rewrite the ledger with go test -run TestAllocationLedger -update . and commit it:\n%s", strings.Join(fell, "\n"))
	}
	if t.Failed() {
		t.Logf("this run's ledger:\n%s", text)
	}
}

// localJob is a shape of one bag of units on late-binding pilots, run on a
// fresh one-shard environment; the workload is built once, outside the
// window.
func localJob(units, pilots int) func(testing.TB) (func(), func()) {
	return func(t testing.TB) (func(), func()) {
		env, err := aimes.NewEnv(aimes.WithSeed(7), aimes.WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(units, aimes.UniformDuration()), 7)
		if err != nil {
			t.Fatal(err)
		}
		cfg := aimes.JobConfig{StrategyConfig: aimes.StrategyConfig{
			Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: pilots}}
		run := func() {
			j, err := env.Submit(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r, err := j.Wait(context.Background()); err != nil || r.UnitsDone != units {
				t.Fatalf("job ended %v with %+v", err, r)
			}
		}
		return run, func() { env.Close() }
	}
}

// ledgerRun runs the shape's jobs and returns the objects each package
// allocated per job, with tinyRow and outsideRow. Two jobs run first, so
// what the set-up leaves to be done lazily is not counted.
func ledgerRun(t *testing.T, s ledgerShape) map[string]float64 {
	t.Helper()
	run, teardown := s.open(t)
	defer teardown()
	run()
	run()
	// No collection runs inside the window, so the pools keep what they
	// are given, and one processor runs it, so the runtime's small-object
	// blocks are shared the same way every run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := allocsByStack()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range s.jobs {
		run()
	}
	runtime.ReadMemStats(&m1)
	after := allocsByStack()

	perPkg := map[string]float64{}
	tiny := float64(m1.Mallocs - m0.Mallocs)
	for stk, n := range after {
		if n -= before[stk]; n != 0 {
			if pkg, ok := owner(stk); ok {
				perPkg[pkg] += float64(n) / float64(s.jobs)
				tiny -= float64(n)
			}
		}
	}
	perPkg[tinyRow] = tiny / float64(s.jobs)
	return perPkg
}

// allocsByStack returns the objects allocated so far at every recorded
// stack. The profile is published by a garbage collection, so one runs
// first.
func allocsByStack() map[[32]uintptr]int64 {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			m := make(map[[32]uintptr]int64, n)
			for _, r := range recs[:n] {
				m[r.Stack0] += r.AllocObjects
			}
			return m
		}
	}
}

// owner is the package of the innermost frame of stk inside module aimes,
// e.g. "internal/pilot" or "aimes" for the root, or outsideRow when there is
// none. It reports false for the test harness's own allocations, whose
// innermost frame in the module is a test's.
func owner(stk [32]uintptr) (string, bool) {
	pcs := stk[:]
	if i := slices.Index(pcs, 0); i >= 0 {
		pcs = pcs[:i]
	}
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		switch pkg := funcPackage(f.Function); {
		case pkg == "aimes":
			return pkg, true
		case strings.HasPrefix(pkg, "aimes/"):
			return pkg[len("aimes/"):], true
		case pkg == "aimes_test":
			return "", false
		}
		if !more {
			return outsideRow, true
		}
	}
}

// funcPackage is the import path of a function's package, read off its
// symbol name: "aimes/internal/pilot.(*PilotManager).Submit" is in
// "aimes/internal/pilot". A generic function's type arguments, which may
// name other packages, are cut first.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// ledgerRows lists the rows of either ledger in order: by shape as
// ledgerShapes lists them, then by package.
func ledgerRows(ledgers ...map[string]float64) []string {
	var rows []string
	for _, l := range ledgers {
		for row := range l {
			if !slices.Contains(rows, row) {
				rows = append(rows, row)
			}
		}
	}
	shapeIndex := func(row string) int {
		return slices.IndexFunc(ledgerShapes, func(s ledgerShape) bool { return strings.HasPrefix(row, s.name+" ") })
	}
	slices.SortFunc(rows, func(a, b string) int {
		if d := shapeIndex(a) - shapeIndex(b); d != 0 {
			return d
		}
		return strings.Compare(a, b)
	})
	return rows
}

func formatLedger(l map[string]float64) []byte {
	var b bytes.Buffer
	b.WriteString("# Objects allocated per job, by the package of the innermost frame of\n")
	b.WriteString("# the allocation's stack inside module aimes (TestAllocationLedger).\n")
	b.WriteString("# Shapes: <units>x<late-binding pilots>, warm jobs on one local shard;\n")
	b.WriteString("# service, a 12-task job from a client through aimes-server over SSE.\n")
	b.WriteString("# Rewrite: go test -run TestAllocationLedger -update .\n")
	b.WriteString(toolchainLine())
	for _, row := range ledgerRows(l) {
		shape, pkg, _ := strings.Cut(row, " ")
		fmt.Fprintf(&b, "%-7s %-22s %9.2f\n", shape, pkg, l[row])
	}
	total := ledgerTotals(l)
	for _, s := range ledgerShapes {
		fmt.Fprintf(&b, "# %s total, %s aside: %.2f\n", s.name, outsideRow, total[s.name])
	}
	return b.Bytes()
}

// ledgerTotals sums each shape's rows but outsideRow.
func ledgerTotals(l map[string]float64) map[string]float64 {
	total := map[string]float64{}
	for row, n := range l {
		if shape, pkg, _ := strings.Cut(row, " "); pkg != outsideRow {
			total[shape] += n
		}
	}
	return total
}

// toolchainLine is the ledger's line naming the Go release it was measured
// with: another release's runtime and standard library allocate differently.
func toolchainLine() string { return "# Measured with " + goMinor() + ".\n" }

// goMinor is the running toolchain's release, e.g. "go1.24" for go1.24.3.
func goMinor() string {
	v := runtime.Version()
	if i := strings.IndexByte(v, '.'); i >= 0 {
		if j := strings.IndexByte(v[i+1:], '.'); j >= 0 {
			return v[:i+1+j]
		}
	}
	return v
}

func parseLedger(data []byte) (map[string]float64, error) {
	l := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("%s: malformed row %q", ledgerPath, line)
		}
		n, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", ledgerPath, err)
		}
		l[f[0]+" "+f[1]] = n
	}
	return l, sc.Err()
}
