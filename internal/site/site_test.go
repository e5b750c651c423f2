package site

import (
	"testing"
	"time"

	"aimes/internal/batch"
	"aimes/internal/sim"
)

func modeledConfig() Config {
	return Config{
		Name: "m", Nodes: 128, CoresPerNode: 16, Architecture: "beowulf",
		WaitModel: batch.WaitModel{
			MedianWait: 10 * time.Minute, Sigma: 1, WidthFactor: 2,
			MinWait: 30 * time.Second,
		},
		BandwidthMBps: 10, NetLatency: 100 * time.Millisecond,
	}
}

func TestConfigValidation(t *testing.T) {
	good := modeledConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(c *Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.CoresPerNode = 0 },
		func(c *Config) { c.BandwidthMBps = 0 },
		func(c *Config) { c.Policy = "shortest-first" },
		func(c *Config) { c.WaitModel.MedianWait = 0 },
		func(c *Config) { c.Mode = Emergent; c.BackgroundUtil = 0 },
		func(c *Config) { c.Mode = Emergent; c.BackgroundUtil = 1.5 },
	}
	for i, mutate := range bad {
		c := modeledConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Fatalf("mutation %d validated", i)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	c := modeledConfig()
	if c.Cores() != 2048 {
		t.Fatalf("Cores = %d, want 2048", c.Cores())
	}
	if c.NodesFor(1) != 1 || c.NodesFor(16) != 1 || c.NodesFor(17) != 2 {
		t.Fatal("NodesFor rounding wrong")
	}
}

func TestNewModeledSite(t *testing.T) {
	eng := sim.NewSim()
	s, err := New(eng, modeledConfig(), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "m" || s.Queue() == nil || s.Link() == nil {
		t.Fatal("site incomplete")
	}
	if s.Link().Bandwidth() != 10e6 {
		t.Fatalf("bandwidth %g, want 10e6 B/s", s.Link().Bandwidth())
	}
}

func TestNewEmergentSite(t *testing.T) {
	eng := sim.NewSim()
	cfg := modeledConfig()
	cfg.Mode = Emergent
	cfg.BackgroundUtil = 0.8
	s, err := New(eng, cfg, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	// Run a few hours: background jobs must be flowing.
	eng.RunUntil(sim.Time(6 * time.Hour))
	snap := s.Queue().Snapshot()
	if snap.RunningJobs == 0 && snap.QueuedJobs == 0 {
		t.Fatal("emergent site has no background load")
	}
}

func TestTestbedRegistry(t *testing.T) {
	eng := sim.NewSim()
	tb, err := NewTestbed(eng, DefaultTestbed(), sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	names := tb.Names()
	if len(names) != 5 {
		t.Fatalf("testbed has %d sites, want 5", len(names))
	}
	for _, n := range names {
		if tb.Site(n) == nil {
			t.Fatalf("site %q missing", n)
		}
	}
	if tb.Site("nope") != nil {
		t.Fatal("unknown site returned non-nil")
	}
	if len(tb.Sites()) != 5 {
		t.Fatal("accessors inconsistent")
	}
}

func TestTestbedRejectsDuplicates(t *testing.T) {
	eng := sim.NewSim()
	cfgs := []Config{modeledConfig(), modeledConfig()}
	if _, err := NewTestbed(eng, cfgs, sim.NewRNG(1)); err == nil {
		t.Fatal("duplicate site accepted")
	}
}

func TestDefaultTestbedHeterogeneous(t *testing.T) {
	cfgs := DefaultTestbed()
	medians := map[time.Duration]bool{}
	archs := map[string]bool{}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		medians[c.WaitModel.MedianWait] = true
		archs[c.Architecture] = true
	}
	if len(medians) < 4 {
		t.Fatal("wait models not heterogeneous")
	}
	if len(archs) < 2 {
		t.Fatal("architectures not heterogeneous")
	}
}

func TestEmergentTestbedConversion(t *testing.T) {
	cfgs := EmergentTestbed(DefaultTestbed(), 0.85, "easy")
	for _, c := range cfgs {
		if c.Mode != Emergent {
			t.Fatal("mode not converted")
		}
		if c.Nodes > 1024 {
			t.Fatal("node count not capped for tractability")
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPolicyByName: the name in the configuration is the policy the site's
// batch system runs, and no name is EASY.
func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]string{"": "easy", "easy": "easy", "fcfs": "fcfs", "conservative": "conservative"} {
		cfg := EmergentTestbed(DefaultTestbed()[2:3], 0.7, name)[0]
		s, err := New(sim.NewSim(), cfg, sim.NewRNG(1))
		if err != nil {
			t.Fatalf("policy %q: %v", name, err)
		}
		if got := s.Queue().(*batch.System).Policy().Name(); got != want {
			t.Errorf("policy %q runs %q, want %q", name, got, want)
		}
	}
}

func TestQueueModeString(t *testing.T) {
	if Modeled.String() != "modeled" || Emergent.String() != "emergent" {
		t.Fatal("mode strings wrong")
	}
}
