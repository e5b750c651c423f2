package bundle

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"aimes/internal/sim"
	"aimes/internal/site"
)

func testSites(t *testing.T, eng *sim.Sim) []*site.Site {
	t.Helper()
	tb, err := site.NewTestbed(eng, site.DefaultTestbed(), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return tb.Sites()
}

func TestBundleRegistry(t *testing.T) {
	eng := sim.NewSim()
	b := New(testSites(t, eng))
	if b.Size() != 5 {
		t.Fatalf("size %d, want 5", b.Size())
	}
	if b.Resource("stampede") == nil || b.Resource("hopper") == nil {
		t.Fatal("named lookup failed")
	}
	if b.Resource("nope") != nil {
		t.Fatal("unknown resource non-nil")
	}
	if len(b.Resources()) != 5 {
		t.Fatal("accessors inconsistent")
	}
	for _, r := range b.Resources() {
		if b.Resource(r.Name()) != r {
			t.Fatalf("%s: named lookup returns another entry", r.Name())
		}
	}
}

func TestOnDemandComputeQuery(t *testing.T) {
	eng := sim.NewSim()
	b := New(testSites(t, eng))
	info := b.Resource("stampede").Compute()
	if info.Name != "stampede" || info.Architecture != "beowulf" {
		t.Fatalf("identity wrong: %+v", info)
	}
	if info.TotalCores != 6400*16 {
		t.Fatalf("cores %d, want %d", info.TotalCores, 6400*16)
	}
	if info.FreeNodes != 6400 {
		t.Fatalf("free nodes %d on idle machine", info.FreeNodes)
	}
	all := b.QueryAll()
	if len(all) != 5 {
		t.Fatalf("QueryAll returned %d", len(all))
	}
}

func TestNetworkAndStorageQuery(t *testing.T) {
	eng := sim.NewSim()
	b := New(testSites(t, eng))
	r := b.Resource("comet")
	net := r.Network()
	if net.BandwidthMBps != 10 || net.Latency != 120*time.Millisecond {
		t.Fatalf("network info wrong: %+v", net)
	}
	if r.Storage().CapacityGB != 7000 {
		t.Fatalf("storage info wrong: %+v", r.Storage())
	}
	// Transfer estimate: 1 MB at 10 MB/s + 120 ms latency = 220 ms.
	est := r.EstimateTransfer(1 << 20)
	want := 120*time.Millisecond + time.Duration(float64(1<<20)/1e7*float64(time.Second))
	if diff := est - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("estimate %v, want ~%v", est, want)
	}
}

func TestPredictiveQuery(t *testing.T) {
	eng := sim.NewSim()
	b := New(testSites(t, eng))
	r := b.Resource("gordon")
	if _, ok := r.Predict(0.5, 0.95); ok {
		t.Fatal("prediction with no history should fail")
	}
	// Feed a known history: waits 1..100 seconds.
	for i := 1; i <= 100; i++ {
		r.ObserveWait(float64(i))
	}
	med, ok := r.Predict(0.5, 0.95)
	if !ok {
		t.Fatal("prediction failed with 100 observations")
	}
	// Conservative median of 1..100 at 95% confidence: above the plain
	// median, below ~the 70th percentile.
	if med.Seconds() < 50 || med.Seconds() > 70 {
		t.Fatalf("median bound %v, want in [50s, 70s]", med)
	}
	p90, _ := r.Predict(0.9, 0.95)
	if p90 <= med {
		t.Fatal("q=0.9 bound not above median bound")
	}
}

func TestObserveWaitBoundsHistory(t *testing.T) {
	eng := sim.NewSim()
	b := New(testSites(t, eng))
	r := b.Resource("gordon")
	for i := 0; i < 5000; i++ {
		r.ObserveWait(1)
	}
	if r.HistoryLen() > 4096 {
		t.Fatalf("history grew unbounded: %d", r.HistoryLen())
	}
}

// TestSortedHistoryMatchesReference: random waits, with repeats, well past
// the cap give every quantile bound a sorted copy of the last 4 096
// observations gives, so the history kept sorted on insert evicts the
// oldest wait and nothing else.
func TestSortedHistoryMatchesReference(t *testing.T) {
	eng := sim.NewSim()
	r := New(testSites(t, eng)).Resource("gordon")
	rng := rand.New(rand.NewSource(7))
	var all []float64
	check := func() {
		t.Helper()
		ref := slices.Clone(all[max(0, len(all)-4096):])
		slices.Sort(ref)
		if r.HistoryLen() != len(ref) {
			t.Fatalf("after %d waits: history %d, want %d", len(all), r.HistoryLen(), len(ref))
		}
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			got, ok := r.Predict(q, 0.95)
			want, wantOK := QuantileBound(ref, q, 0.95)
			if ok != wantOK || got != time.Duration(want*float64(time.Second)) {
				t.Fatalf("after %d waits: Predict(%g) = %v, %v; reference %gs, %v", len(all), q, got, ok, want, wantOK)
			}
		}
	}
	for len(all) < 3*4096+123 {
		w := float64(rng.Intn(3000))
		if rng.Intn(4) == 0 {
			w = rng.ExpFloat64() * 900
		}
		all = append(all, w)
		r.ObserveWait(w)
		if len(all) <= 40 || len(all)%997 == 0 || len(all) == 4096 || len(all) == 4097 {
			check()
		}
	}
	check()
}

// TestPredictAllocatesNothing: a prediction on a full history indexes the
// sorted waits; it neither copies (32 KB a call) nor sorts them.
func TestPredictAllocatesNothing(t *testing.T) {
	eng := sim.NewSim()
	r := New(testSites(t, eng)).Resource("gordon")
	for i := 0; i < 4096; i++ {
		r.ObserveWait(float64((i * 7919) % 4096))
	}
	if n := testing.AllocsPerRun(100, func() { r.Predict(0.5, 0.95) }); n != 0 {
		t.Fatalf("Predict allocates %g objects a call, want 0", n)
	}
}

func BenchmarkPredict(b *testing.B) {
	eng := sim.NewSim()
	tb, err := site.NewTestbed(eng, site.DefaultTestbed(), sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	r := New(tb.Sites()).Resource("gordon")
	for i := 0; i < 4096; i++ {
		r.ObserveWait(float64((i * 7919) % 4096))
	}
	b.ReportAllocs()
	for b.Loop() {
		r.Predict(0.5, 0.95)
	}
}

func TestSetupTimeInComputeInfo(t *testing.T) {
	eng := sim.NewSim()
	b := New(testSites(t, eng))
	r := b.Resource("stampede")
	for i := 0; i < 50; i++ {
		r.ObserveWait(600)
	}
	info := r.Compute()
	if info.SetupTime != 600*time.Second {
		t.Fatalf("setup time %v, want 600s", info.SetupTime)
	}
}

// QuantileBound's input is a history in ascending order, as Resource keeps
// it; its tests give it sorted input.
func TestQuantileBoundEdgeCases(t *testing.T) {
	if _, ok := QuantileBound(nil, 0.5, 0.95); ok {
		t.Fatal("empty history predicted")
	}
	if _, ok := QuantileBound(make([]float64, 7), 0.5, 0.95); ok {
		t.Fatal("short history predicted")
	}
	h := []float64{5, 5, 5, 5, 5, 5, 5, 5}
	v, ok := QuantileBound(h, 0.5, 0.95)
	if !ok || v != 5 {
		t.Fatalf("constant history bound %g ok=%v", v, ok)
	}
	// Degenerate quantile/confidence inputs are clamped, not panics.
	if _, ok := QuantileBound(h, -1, 2); !ok {
		t.Fatal("clamped inputs failed")
	}
}

func TestQuantileBoundIsConservative(t *testing.T) {
	// The bound must sit at or above the plain empirical quantile.
	h := make([]float64, 200)
	for i := range h {
		h[i] = float64(i)
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9} {
		bound, ok := QuantileBound(h, q, 0.95)
		if !ok {
			t.Fatal("prediction failed")
		}
		plain := q * 199
		if bound < plain {
			t.Fatalf("bound %g below plain quantile %g at q=%g", bound, plain, q)
		}
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0}, {0.8413447, 1}, {0.9772499, 2}, {0.0227501, -2}, {0.95, 1.6449},
	}
	for _, c := range cases {
		if got := normalQuantile(c.p); math.Abs(got-c.want) > 1e-3 {
			t.Fatalf("normalQuantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range p did not panic")
		}
	}()
	normalQuantile(0)
}
