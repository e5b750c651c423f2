package model

import (
	"math"
	"math/rand"
	"testing"
)

func TestColdShardIsRankable(t *testing.T) {
	m := New(Config{Shards: 3, Backend: BackendLocal})
	// Warm shards 0 and 1 with completions; shard 2 stays cold.
	for i := 0; i < 20; i++ {
		m.Observe(Observation{Shard: 0, Cost: 900, Wait: 1800, TTC: 2700})
		m.Observe(Observation{Shard: 1, Cost: 900, Wait: 1800, TTC: 2700})
	}
	if n := m.fits[2].n.Load(); n != 0 {
		t.Fatalf("shard 2 should be cold, has %d observations", n)
	}
	// The cold shard must still produce a finite, comparable prediction.
	p := m.Predict(2, 900, 0)
	if math.IsInf(p.Total, 0) || math.IsNaN(p.Total) || p.Total <= 0 {
		t.Fatalf("cold shard prediction not rankable: %+v", p)
	}
	// With warm shards carrying backlog, the empty cold shard must win.
	warm := m.Predict(0, 900, 50000)
	if p.Total >= warm.Total {
		t.Fatalf("empty cold shard (%.1f) should beat backlogged warm shard (%.1f)", p.Total, warm.Total)
	}
}

func TestUniformFitsRankLikeLeastLoaded(t *testing.T) {
	// With every shard at the same fit, predicted completion must order
	// shards exactly by pending cost: least-loaded is the degenerate case.
	m := New(Config{Shards: 4, Backend: BackendLocal})
	pendings := []float64{4000, 1000, 3000, 2000}
	best, bestTotal := -1, math.Inf(1)
	for k, pend := range pendings {
		if tot := m.Predict(k, 900, pend).Total; tot < bestTotal {
			best, bestTotal = k, tot
		}
	}
	if best != 1 {
		t.Fatalf("predictive ranking picked shard %d, least-loaded picks 1", best)
	}
}

func TestMigrationGateDegeneratesToPendingRule(t *testing.T) {
	m := New(Config{Shards: 2, Backend: BackendLocal})
	cases := []struct {
		origin, dest, cost float64
		want               bool
	}{
		// dest + cost <= origin - cost: migrate.
		{10000, 1000, 900, true},
		{10000, 8200, 900, true}, // 8200+900 = 9100 == 10000-900: boundary migrates
		{10000, 8300, 900, false},
		{2000, 1900, 900, false}, // near-balanced: moving would just ping-pong
		{1800, 0, 900, true},     // empty dest: exactly at the boundary (0+900 == 1800-900)
	}
	for i, c := range cases {
		if got := m.ShouldMigrate(0, 1, c.cost, c.origin, c.dest); got != c.want {
			t.Errorf("case %d: ShouldMigrate(origin=%.0f dest=%.0f cost=%.0f) = %v, want %v",
				i, c.origin, c.dest, c.cost, got, c.want)
		}
	}
}

func TestMigrationGateFavorsFasterShard(t *testing.T) {
	m := New(Config{Shards: 2, Backend: BackendLocal})
	// Teach the model that shard 1 drains 4x faster than shard 0.
	for i := 0; i < 50; i++ {
		m.Observe(Observation{Shard: 0, Cost: 900, Wait: 0, TTC: 900})  // rate 1
		m.Observe(Observation{Shard: 1, Cost: 3600, Wait: 0, TTC: 900}) // rate 4
	}
	// Equal pendings would never migrate under the pending rule, but the
	// fast shard clears the backlog (and the job) so much sooner that the
	// model approves the move.
	if !m.ShouldMigrate(0, 1, 900, 4000, 4000) {
		t.Fatal("model should migrate toward a 4x-faster shard at equal pending cost")
	}
	// And never in the other direction.
	if m.ShouldMigrate(1, 0, 900, 4000, 4000) {
		t.Fatal("model migrated toward the slower shard")
	}
}

func TestHeavyTailedFitConverges(t *testing.T) {
	// Adversarial input: Pareto-like costs spanning four orders of
	// magnitude at a fixed true drain rate. The fitted rate must stay
	// finite, positive, and within a small factor of the truth.
	m := New(Config{Shards: 1, Backend: BackendLocal})
	rng := rand.New(rand.NewSource(7))
	const trueRate = 2.5
	for i := 0; i < 5000; i++ {
		// Pareto(alpha=1.1) scaled: mostly ~1, occasionally 10^3-10^4.
		cost := math.Pow(rng.Float64(), -1/1.1)
		wait := 10 * rng.Float64()
		noise := 0.7 + 0.6*rng.Float64() // per-job drain jitter around the true rate
		m.Observe(Observation{Shard: 0, Cost: cost, Wait: wait, TTC: wait + cost/(trueRate*noise)})
	}
	got := m.Snapshot()[0]
	if math.IsNaN(got.Rate) || math.IsInf(got.Rate, 0) || got.Rate <= 0 {
		t.Fatalf("heavy-tailed fit diverged: rate=%v", got.Rate)
	}
	if got.Rate < trueRate/1.5 || got.Rate > trueRate*1.5 {
		t.Fatalf("heavy-tailed fit off: rate=%.3f, true %.1f", got.Rate, trueRate)
	}
	if got.Wait < 0 || got.Wait > 10 {
		t.Fatalf("wait fit escaped observed range: %.3f", got.Wait)
	}
}

func TestObserveIgnoresGarbage(t *testing.T) {
	m := New(Config{Shards: 1, Backend: BackendLocal})
	before := m.Snapshot()[0]
	m.Observe(Observation{Shard: -1, Cost: 900, TTC: 900})
	m.Observe(Observation{Shard: 5, Cost: 900, TTC: 900})
	m.Observe(Observation{Shard: 0, Cost: 900, TTC: 0})
	m.Observe(Observation{Shard: 0, Cost: 900, TTC: -4})
	after := m.Snapshot()[0]
	if after != before {
		t.Fatalf("garbage observations mutated the fit: %+v -> %+v", before, after)
	}
	// A wait beyond TTC is dropped from the wait/rate fit but the
	// completion still counts toward cost and n.
	m.Observe(Observation{Shard: 0, Cost: 900, Wait: 100, TTC: 50})
	got := m.Snapshot()[0]
	if got.Observations != 1 {
		t.Fatalf("inconsistent wait should still count the completion, n=%d", got.Observations)
	}
	if got.Rate != before.Rate || got.Wait != before.Wait {
		t.Fatal("inconsistent wait leaked into the rate/wait fit")
	}
}

func TestWindowTracksEventDemand(t *testing.T) {
	m := New(Config{Shards: 1, Backend: BackendLocal})
	const batch, floor, max = 64, 4, 64
	// Cold: seed events-per-job >= batch, window pinned at the floor.
	if w := m.Window(0, batch, floor, max, 100); w != floor {
		t.Fatalf("cold window = %d, want floor %d", w, floor)
	}
	// A flood of tiny jobs (few events each) must open the window.
	for i := 0; i < 60; i++ {
		m.Observe(Observation{Shard: 0, Cost: 1, Wait: 0, TTC: 1, Events: 8})
	}
	w := m.Window(0, batch, floor, max, 100)
	if w <= floor {
		t.Fatalf("tiny-job window stuck at %d, want > floor %d", w, floor)
	}
	if w > max {
		t.Fatalf("window %d exceeds cap %d", w, max)
	}
	// Never wider than the work available.
	if got := m.Window(0, batch, floor, max, 6); got > 6 && got != floor {
		t.Fatalf("window %d wider than present jobs 6", got)
	}
}

func TestRelErrorTracksPredictions(t *testing.T) {
	m := New(Config{Shards: 1, Backend: BackendLocal})
	if m.RelError(0) != 0 {
		t.Fatalf("cold relErr = %v, want 0", m.RelError(0))
	}
	// Perfect predictions: error stays 0.
	for i := 0; i < 10; i++ {
		m.Observe(Observation{Shard: 0, Cost: 900, Wait: 0, TTC: 900, Predicted: 900})
	}
	if e := m.RelError(0); e != 0 {
		t.Fatalf("perfect predictions gave relErr %v", e)
	}
	// 50%-off predictions: EWMA converges toward 0.5.
	for i := 0; i < 50; i++ {
		m.Observe(Observation{Shard: 0, Cost: 900, Wait: 0, TTC: 1000, Predicted: 500})
	}
	if e := m.RelError(0); e < 0.4 || e > 0.6 {
		t.Fatalf("relErr = %v, want ~0.5", e)
	}
}

func TestFidelityScoreAndBaseline(t *testing.T) {
	samples := []Sample{
		{Job: 0, Predicted: 100, Observed: 100},
		{Job: 1, Predicted: 90, Observed: 100},
		{Job: 2, Predicted: 120, Observed: 100},
	}
	f := Score(samples)
	if f.Samples != 3 {
		t.Fatalf("samples = %d", f.Samples)
	}
	if math.Abs(f.MeanRelError-0.1) > 1e-12 {
		t.Fatalf("mean rel error = %v, want 0.1", f.MeanRelError)
	}
	if math.Abs(f.MaxRelError-0.2) > 1e-12 {
		t.Fatalf("max rel error = %v, want 0.2", f.MaxRelError)
	}
	b := Baseline{MaxMeanRelError: 0.15, MaxWorstRelError: 0.25, MinSamples: 3}
	if errs := b.Check(f); len(errs) != 0 {
		t.Fatalf("in-bounds score failed baseline: %v", errs)
	}
	b = Baseline{MaxMeanRelError: 0.05, MaxWorstRelError: 0.1, MinSamples: 10}
	if errs := b.Check(f); len(errs) != 3 {
		t.Fatalf("want 3 violations, got %v", errs)
	}
	if Score(nil).Samples != 0 {
		t.Fatal("empty battery should score zero samples")
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := t.TempDir() + "/MODEL_baseline.json"
	f := Fidelity{Samples: 40, MeanRelError: 0.08, MaxRelError: 0.3}
	wrote, err := UpdateBaseline(path, f)
	if err != nil {
		t.Fatal(err)
	}
	read, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if read != wrote {
		t.Fatalf("round trip mismatch: wrote %+v read %+v", wrote, read)
	}
	// The freshly derived thresholds must pass the score they came from.
	if errs := read.Check(f); len(errs) != 0 {
		t.Fatalf("fresh baseline rejects its own score: %v", errs)
	}
	if _, err := LoadBaseline(t.TempDir() + "/missing.json"); err == nil {
		t.Fatal("missing baseline should error")
	}
}
