package bundle

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"aimes/internal/batch"
	"aimes/internal/sim"
	"aimes/internal/site"
)

func evalOn(t *testing.T, expr string, env map[string]value) bool {
	t.Helper()
	ast, err := ParseExpr(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	ok, err := ast.Eval(env)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return ok
}

func testEnv() map[string]value {
	return map[string]value{
		"cores":       numVal(1024),
		"utilization": numVal(0.8),
		"arch":        strVal("cray"),
	}
}

func TestExprComparisons(t *testing.T) {
	env := testEnv()
	cases := []struct {
		expr string
		want bool
	}{
		{"cores >= 1024", true},
		{"cores > 1024", false},
		{"cores < 2048", true},
		{"cores <= 1023", false},
		{"cores == 1024", true},
		{"cores != 1024", false},
		{`arch == "cray"`, true},
		{`arch != "cray"`, false},
		{`arch == 'beowulf'`, false},
		{"utilization < 0.9", true},
	}
	for _, c := range cases {
		if got := evalOn(t, c.expr, env); got != c.want {
			t.Fatalf("%q = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestExprBooleanOperators(t *testing.T) {
	env := testEnv()
	cases := []struct {
		expr string
		want bool
	}{
		{`cores >= 1024 && arch == "cray"`, true},
		{`cores > 9999 && arch == "cray"`, false},
		{`cores > 9999 || arch == "cray"`, true},
		{`!(cores > 9999)`, true},
		{`!(cores > 9999) && !(utilization > 0.9)`, true},
		{`(cores > 9999 || arch == "cray") && utilization < 0.9`, true},
	}
	for _, c := range cases {
		if got := evalOn(t, c.expr, env); got != c.want {
			t.Fatalf("%q = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestExprPrecedence(t *testing.T) {
	// && binds tighter than ||: a || b && c == a || (b && c).
	env := map[string]value{"a": numVal(1), "b": numVal(0), "c": numVal(0)}
	if !evalOn(t, "a == 1 || b == 1 && c == 1", env) {
		t.Fatal("precedence wrong: expected true for a || (b && c)")
	}
}

func TestExprScientificNumbers(t *testing.T) {
	env := map[string]value{"x": numVal(1.5e6)}
	if !evalOn(t, "x == 1.5e6", env) {
		t.Fatal("scientific literal broken")
	}
	if !evalOn(t, "x > -2", env) {
		t.Fatal("negative literal broken")
	}
}

func TestExprParseErrors(t *testing.T) {
	bad := []string{
		"",
		"cores",
		"cores >=",
		"cores >= >=",
		"(cores >= 1",
		"cores >= 1 &&",
		`arch == "unterminated`,
		"cores >= 1 extra",
		"@bogus == 1",
		"1024 >= cores",
	}
	for _, src := range bad {
		if _, err := ParseExpr(src); err == nil {
			t.Fatalf("%q parsed successfully", src)
		}
	}
}

func TestExprEvalErrors(t *testing.T) {
	env := testEnv()
	cases := []string{
		"missing_field == 1",
		`cores == "string"`,
		`arch > "a"`, // ordering undefined for strings
	}
	for _, src := range cases {
		ast, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := ast.Eval(env); err == nil {
			t.Fatalf("%q evaluated successfully", src)
		}
	}
}

func TestExprString(t *testing.T) {
	ast, err := ParseExpr(`cores >= 1024 && arch == "cray" || !(nodes < 2)`)
	if err != nil {
		t.Fatal(err)
	}
	s := ast.String()
	for _, want := range []string{"cores >= 1024", `arch == "cray"`, "!"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestBundleMatch(t *testing.T) {
	eng := sim.NewSim()
	tb, err := site.NewTestbed(eng, site.DefaultTestbed(), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	b := New(tb.Sites())
	// Only hopper is a cray in the default testbed.
	got, err := b.Match(`arch == "cray"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name() != "hopper" {
		t.Fatalf("cray match = %v", names(got))
	}
	// Large machines: stampede (102400) and hopper (153216).
	got, err = b.Match("cores >= 100000")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("large-machine match = %v", names(got))
	}
	// Everything matches a tautology.
	got, err = b.Match("nodes > 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("tautology match = %v", names(got))
	}
	// Parse errors surface.
	if _, err := b.Match("nodes >"); err == nil {
		t.Fatal("bad expression accepted")
	}
	// Unknown field errors surface.
	if _, err := b.Match("warp_drive == 1"); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func names(rs []*Resource) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name()
	}
	return out
}

// Property: parser round-trips its own String() output.
func TestExprRoundTripProperty(t *testing.T) {
	fields := []string{"cores", "nodes", "utilization"}
	ops := []string{"==", "!=", ">=", "<=", ">", "<"}
	prop := func(fi, oi uint8, val int16, negate bool) bool {
		src := fields[int(fi)%len(fields)] + " " + ops[int(oi)%len(ops)] + " " +
			sformat(float64(val))
		if negate {
			src = "!(" + src + ")"
		}
		ast, err := ParseExpr(src)
		if err != nil {
			return false
		}
		back, err := ParseExpr(ast.String())
		if err != nil {
			return false
		}
		env := map[string]value{
			"cores": numVal(100), "nodes": numVal(5), "utilization": numVal(0.5),
		}
		a, err1 := ast.Eval(env)
		b, err2 := back.Eval(env)
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sformat(f float64) string {
	ast := cmpExpr{field: "x", op: "==", lit: numVal(f)}
	s := ast.String()
	return s[len("x == "):]
}

// direct is the Monitor's sync for a test that owns the engine.
func direct(fn func()) { fn() }

func TestMonitorThresholds(t *testing.T) {
	eng := sim.NewSim()
	tb, err := site.NewTestbed(eng, site.DefaultTestbed(), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	b := New(tb.Sites())
	m := NewMonitor(eng, b, time.Minute, direct)
	var events []Event
	err = m.Subscribe(Condition{
		Resource: "stampede", Metric: MetricQueuedJobs, Op: OpAbove, Threshold: 0.5,
	}, func(e Event) { events = append(events, e) })
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the machine so a queued job appears, after 10 minutes.
	eng.Schedule(10*time.Minute, func() {
		s := tb.Site("stampede")
		for i := 0; i < 2; i++ {
			if err := s.Queue().Submit(&batch.Job{
				ID: "big", Nodes: 6400, Runtime: 5 * time.Hour, Walltime: 6 * time.Hour,
			}); err != nil {
				t.Error(err)
			}
		}
	})
	eng.RunUntil(sim.Time(40 * time.Minute))
	m.Stop()
	eng.Run()
	if len(events) != 1 {
		t.Fatalf("events = %d, want exactly 1 (edge-triggered)", len(events))
	}
	if events[0].Condition.Resource != "stampede" || events[0].Value < 1 {
		t.Fatalf("event = %+v", events[0])
	}
}

func TestMonitorSustain(t *testing.T) {
	eng := sim.NewSim()
	tb, err := site.NewTestbed(eng, site.DefaultTestbed(), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	b := New(tb.Sites())
	m := NewMonitor(eng, b, time.Minute, direct)
	fired := sim.Time(0)
	err = m.Subscribe(Condition{
		Resource: "gordon", Metric: MetricFreeNodes, Op: OpAbove, Threshold: 10,
		Sustain: 30 * time.Minute,
	}, func(e Event) {
		if fired == 0 {
			fired = e.Time
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(2 * time.Hour))
	m.Stop()
	if fired < sim.Time(30*time.Minute) {
		t.Fatalf("fired at %v, before sustain window elapsed", fired)
	}
	if fired > sim.Time(32*time.Minute) {
		t.Fatalf("fired at %v, long after sustain window", fired)
	}
}

func TestMonitorSubscribeValidation(t *testing.T) {
	eng := sim.NewSim()
	tb, _ := site.NewTestbed(eng, site.DefaultTestbed(), sim.NewRNG(1))
	b := New(tb.Sites())
	m := NewMonitor(eng, b, time.Minute, direct)
	if err := m.Subscribe(Condition{Resource: "nope", Metric: MetricFreeNodes, Op: OpAbove}, func(Event) {}); err == nil {
		t.Fatal("unknown resource accepted")
	}
	if err := m.Subscribe(Condition{Resource: "gordon", Metric: "bogus", Op: OpAbove}, func(Event) {}); err == nil {
		t.Fatal("unknown metric accepted")
	}
	if err := m.Subscribe(Condition{Resource: "gordon", Metric: MetricFreeNodes, Op: "~"}, func(Event) {}); err == nil {
		t.Fatal("unknown operator accepted")
	}
	m.Stop()
}

// ExampleParseExpr shows the discovery requirement language.
func ExampleParseExpr() {
	expr, err := ParseExpr(`cores >= 1024 && arch == "cray"`)
	if err != nil {
		panic(err)
	}
	env := map[string]value{
		"cores": numVal(153216),
		"arch":  strVal("cray"),
	}
	ok, err := expr.Eval(env)
	if err != nil {
		panic(err)
	}
	fmt.Println(ok)
	// Output:
	// true
}
