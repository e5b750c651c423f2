package core

import (
	"math/rand"
	"testing"
	"time"

	"aimes/internal/batch"
	"aimes/internal/bundle"
	"aimes/internal/netsim"
	"aimes/internal/pilot"
	"aimes/internal/saga"
	"aimes/internal/sim"
	"aimes/internal/site"
	"aimes/internal/trace"
)

// slowFastEnv builds a testbed where the initially chosen resource is
// pathologically slow and another is fast, so adaptation pays off
// deterministically.
func slowFastEnv(t *testing.T, seed int64) *env {
	t.Helper()
	eng := sim.NewSim()
	mk := func(name string, median time.Duration) site.Config {
		return site.Config{
			Name: name, Nodes: 512, CoresPerNode: 16, Architecture: "beowulf",
			WaitModel:     batch.WaitModel{MedianWait: median, Sigma: 0},
			SubmitLatency: time.Second,
			BandwidthMBps: 10, NetLatency: 100 * time.Millisecond,
		}
	}
	configs := []site.Config{
		mk("slow", 6*time.Hour),
		mk("fast", 2*time.Minute),
	}
	tb, err := site.NewTestbed(eng, configs, sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	sess := saga.NewSession()
	for _, s := range tb.Sites() {
		sess.Register(saga.NewBatchAdaptor(eng, s))
	}
	b := bundle.New(tb.Sites())
	links := func(resource string) *netsim.Link { return tb.Site(resource).Link() }
	mgr := NewManager(eng, b, sess, links, pilot.DefaultConfig(), rand.New(rand.NewSource(seed)))
	return &env{eng: eng, tb: tb, bndl: b, mgr: mgr, rec: trace.NewRecorder()}
}

func TestAdaptiveAddsPilotWhenStuck(t *testing.T) {
	e := slowFastEnv(t, 1)
	// Prime predictions so adaptation picks the fast resource knowingly.
	for i := 0; i < 50; i++ {
		e.bndl.Resource("slow").ObserveWait(6 * 3600)
		e.bndl.Resource("fast").ObserveWait(120)
	}
	w := botWorkload(t, 16, 1)
	s := Strategy{
		Binding:       LateBinding,
		Scheduler:     SchedBackfill,
		Pilots:        1,
		Resources:     []string{"slow"},
		PilotCores:    16,
		PilotWalltime: 8 * time.Hour,
	}
	exec := e.enact(t, &Descriptor{Workload: w, Strategy: &s, Adaptive: &AdaptiveConfig{
		Patience:       10 * time.Minute,
		MaxExtraPilots: 2,
	}}, ExecOptions{Sink: recorderSink{e.rec}})
	e.eng.Run()
	if !exec.done {
		t.Fatal("execution incomplete")
	}
	report := exec.report
	if report.ExtraPilots != 1 {
		t.Fatalf("extra pilots = %d, want 1", report.ExtraPilots)
	}
	if report.UnitsDone != 16 {
		t.Fatalf("done = %d", report.UnitsDone)
	}
	// TTC must be bounded by patience + fast wait + execution, far below the
	// 6-hour slow wait.
	if report.TTC > 2*time.Hour {
		t.Fatalf("TTC %v: adaptation did not rescue the run", report.TTC)
	}
	// The trace records the adaptation.
	if _, ok := e.rec.First("em", "ADAPTED"); !ok {
		t.Fatal("trace missing ADAPTED record")
	}
}

func TestAdaptiveDoesNotFireWhenHealthy(t *testing.T) {
	e := slowFastEnv(t, 2)
	w := botWorkload(t, 16, 2)
	s := Strategy{
		Binding:       LateBinding,
		Scheduler:     SchedBackfill,
		Pilots:        1,
		Resources:     []string{"fast"},
		PilotCores:    16,
		PilotWalltime: 2 * time.Hour,
	}
	exec := e.enact(t, &Descriptor{Workload: w, Strategy: &s, Adaptive: &AdaptiveConfig{
		Patience:       30 * time.Minute, // fast activates at ~2m
		MaxExtraPilots: 2,
	}}, ExecOptions{Sink: recorderSink{e.rec}})
	e.eng.Run()
	if exec.report.ExtraPilots != 0 {
		t.Fatalf("extra pilots = %d, want 0", exec.report.ExtraPilots)
	}
}

func TestAdaptiveBudgetExhausts(t *testing.T) {
	e := slowFastEnv(t, 3)
	w := botWorkload(t, 8, 3)
	s := Strategy{
		Binding:       LateBinding,
		Scheduler:     SchedBackfill,
		Pilots:        1,
		Resources:     []string{"slow"},
		PilotCores:    8,
		PilotWalltime: 8 * time.Hour,
	}
	// Patience so short that both adaptation rounds fire before any
	// activation; only one other resource exists, so exactly one extra
	// pilot can be added.
	exec := e.enact(t, &Descriptor{Workload: w, Strategy: &s, Adaptive: &AdaptiveConfig{
		Patience:       30 * time.Second,
		MaxExtraPilots: 5,
	}}, ExecOptions{Sink: recorderSink{e.rec}})
	e.eng.Run()
	if exec.report.ExtraPilots != 1 {
		t.Fatalf("extra pilots = %d, want 1 (pool exhausted)", exec.report.ExtraPilots)
	}
}

func TestAdaptiveConfigValidation(t *testing.T) {
	e := slowFastEnv(t, 4)
	w := botWorkload(t, 8, 4)
	s := Strategy{
		Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 1,
		Resources: []string{"fast"}, PilotCores: 8, PilotWalltime: time.Hour,
	}
	if _, err := e.mgr.Prepare(&Descriptor{Workload: w, Strategy: &s, Adaptive: &AdaptiveConfig{Patience: 0}}, ExecOptions{Sink: recorderSink{e.rec}}); err == nil {
		t.Fatal("zero patience accepted")
	}
	if _, err := e.mgr.Prepare(&Descriptor{Workload: w, Strategy: &s, Adaptive: &AdaptiveConfig{
		Patience: time.Minute, MaxExtraPilots: -1,
	}}, ExecOptions{Sink: recorderSink{e.rec}}); err == nil {
		t.Fatal("negative budget accepted")
	}
	if e.eng.Pending() != 0 || e.rec.Len() != 0 {
		t.Fatalf("a rejected configuration reached the engine: %d events, %d records", e.eng.Pending(), e.rec.Len())
	}
}

func TestChoosePilotCountPrefersMultiplePilots(t *testing.T) {
	e := newEnv(t, 5)
	// Prime realistic heavy-tailed history on the default testbed.
	rng := rand.New(rand.NewSource(5))
	for _, cfg := range site.DefaultTestbed() {
		r := e.bndl.Resource(cfg.Name)
		for i := 0; i < 200; i++ {
			r.ObserveWait(cfg.WaitModel.SampleWait(rng, 1, cfg.Nodes).Seconds())
		}
	}
	w := botWorkload(t, 256, 5)
	k := ChoosePilotCount(w, e.bndl, 5)
	if k < 2 || k > 5 {
		t.Fatalf("chose %d pilots; heavy-tailed waits should favor 2..5", k)
	}
}

func TestChoosePilotCountFallsBackWithoutHistory(t *testing.T) {
	e := newEnv(t, 6)
	w := botWorkload(t, 64, 6)
	if k := ChoosePilotCount(w, e.bndl, 5); k != 3 {
		t.Fatalf("cold-start choice = %d, want the paper default 3", k)
	}
	if k := ChoosePilotCount(w, e.bndl, 2); k != 2 {
		t.Fatalf("cold-start bounded choice = %d, want 2", k)
	}
}

func TestDeriveAutoPilots(t *testing.T) {
	e := newEnv(t, 7)
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range site.DefaultTestbed() {
		r := e.bndl.Resource(cfg.Name)
		for i := 0; i < 100; i++ {
			r.ObserveWait(cfg.WaitModel.SampleWait(rng, 1, cfg.Nodes).Seconds())
		}
	}
	w := botWorkload(t, 128, 7)
	s, err := Derive(w, e.bndl, dispatch, StrategyConfig{
		Binding:    LateBinding,
		Scheduler:  SchedBackfill,
		AutoPilots: true,
		Selection:  SelectByPredictedWait,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pilots < 2 {
		t.Fatalf("auto-derived %d pilots, want >= 2", s.Pilots)
	}
	if len(s.Resources) != s.Pilots {
		t.Fatal("resource list inconsistent")
	}
}
