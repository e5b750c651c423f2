// Package site assembles one simulated computing resource: a batch queue
// (emergent or stochastic), a WAN link for data staging, node/core geometry,
// and submission overheads. Sites stand in for the paper's XSEDE and NERSC
// machines; DefaultTestbed returns five heterogeneous sites calibrated to
// reproduce the queue-wait regimes the paper reports.
package site

import (
	"fmt"
	"time"

	"aimes/internal/batch"
	"aimes/internal/netsim"
	"aimes/internal/sim"
)

// QueueMode selects how queue waits are produced.
type QueueMode int

const (
	// Modeled queues sample waits from a calibrated lognormal WaitModel
	// (fast, deterministic; used by the headline experiments).
	Modeled QueueMode = iota
	// Emergent queues run the full batch-scheduler simulation, EASY
	// backfilling, under background load (used by the cross-validation
	// ablation).
	Emergent
)

// Config describes one resource. It is plain data: it crosses the worker
// wire as it is, so a field added here reaches an out-of-process shard
// without further code.
type Config struct {
	// Name identifies the site (e.g. "stampede").
	Name string `json:"name"`
	// Nodes is the machine size in nodes.
	Nodes int `json:"nodes"`
	// CoresPerNode is the node width; core requests are rounded up to whole
	// nodes, as on real machines.
	CoresPerNode int `json:"cores_per_node"`
	// Architecture tags the machine type ("cray", "beowulf", "condor-pool").
	Architecture string `json:"architecture,omitempty"`
	// Mode selects modeled or emergent queue waits.
	Mode QueueMode `json:"mode"`
	// WaitModel parameterizes modeled waits.
	WaitModel batch.WaitModel `json:"wait_model"`
	// BackgroundUtil is the target background utilization for emergent mode.
	BackgroundUtil float64 `json:"background_util,omitempty"`
	// SubmitLatency is the job-submission overhead (client → resource RM),
	// e.g. GSISSH round trips.
	SubmitLatency time.Duration `json:"submit_latency"`
	// BandwidthMBps is the WAN link capacity in MB/s shared by all staging.
	BandwidthMBps float64 `json:"bandwidth_mbps"`
	// NetLatency is the fixed per-file transfer setup latency.
	NetLatency time.Duration `json:"net_latency"`
	// StorageGB is the scratch capacity exposed through bundles.
	StorageGB float64 `json:"storage_gb"`
}

// Validate reports a descriptive error for malformed configurations.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("site: empty name")
	}
	if c.Nodes <= 0 || c.CoresPerNode <= 0 {
		return fmt.Errorf("site %s: bad geometry %d nodes × %d cores", c.Name, c.Nodes, c.CoresPerNode)
	}
	if c.BandwidthMBps <= 0 {
		return fmt.Errorf("site %s: bandwidth %g MB/s must be positive", c.Name, c.BandwidthMBps)
	}
	if c.Mode == Modeled {
		if err := c.WaitModel.Validate(); err != nil {
			return fmt.Errorf("site %s: %w", c.Name, err)
		}
	} else if c.BackgroundUtil <= 0 || c.BackgroundUtil >= 1 {
		return fmt.Errorf("site %s: background utilization %g out of (0, 1)", c.Name, c.BackgroundUtil)
	}
	return nil
}

// Cores returns the machine size in cores.
func (c Config) Cores() int { return c.Nodes * c.CoresPerNode }

// NodesFor converts a core request to whole nodes.
func (c Config) NodesFor(cores int) int {
	return (cores + c.CoresPerNode - 1) / c.CoresPerNode
}

// Site is an instantiated resource on a simulation engine.
type Site struct {
	cfg   Config
	queue batch.Queue
	link  *netsim.Link
}

// New instantiates the site on the engine. rng must be namespaced per site so
// that sites draw independent streams.
func New(eng *sim.Sim, cfg Config, rng *sim.RNG) (*Site, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Site{cfg: cfg}
	switch cfg.Mode {
	case Modeled:
		s.queue = batch.NewStochastic(eng, cfg.Name, cfg.Nodes, cfg.WaitModel, rng.Stream("queue"))
	case Emergent:
		sys := batch.NewSystem(eng, batch.SystemConfig{Name: cfg.Name, Nodes: cfg.Nodes})
		if err := batch.StartBackground(eng, sys, cfg.Nodes,
			batch.DefaultBackground(cfg.Nodes, cfg.BackgroundUtil), rng.Stream("background")); err != nil {
			return nil, err
		}
		s.queue = sys
	default:
		return nil, fmt.Errorf("site %s: unknown queue mode %d", cfg.Name, cfg.Mode)
	}
	s.link = netsim.NewLink(eng, cfg.Name+".wan",
		cfg.BandwidthMBps*1e6, cfg.NetLatency)
	// Staging tools run a bounded stream pool per site.
	s.link.SetMaxConcurrent(8)
	return s, nil
}

// Name returns the site name.
func (s *Site) Name() string { return s.cfg.Name }

// Config returns the site configuration.
func (s *Site) Config() Config { return s.cfg }

// Queue returns the batch queue.
func (s *Site) Queue() batch.Queue { return s.queue }

// Link returns the WAN link used for staging.
func (s *Site) Link() *netsim.Link { return s.link }

// SetOffline takes the site's queue out of service (see batch.Queue).
// Submissions already in the adaptor's latency window fail on arrival; jobs
// in the queue are held. When killRunning is true, running jobs — including
// active pilots — terminate with a resource failure.
func (s *Site) SetOffline(killRunning bool) { s.queue.SetOffline(killRunning) }

// SetOnline restores the site's queue to service; held jobs resume
// dispatching.
func (s *Site) SetOnline() { s.queue.SetOnline() }

// Online reports whether the site's queue is in service.
func (s *Site) Online() bool { return !s.queue.Offline() }

// SetWaitScale injects a background-load surge on a modeled queue: future
// sampled waits are multiplied by factor (1 restores nominal). It reports
// whether the site's queue supports wait scaling (emergent queues surge via
// real job bursts instead — see scenario.Engine).
func (s *Site) SetWaitScale(factor float64) bool {
	if q, ok := s.queue.(*batch.Stochastic); ok {
		q.SetWaitScale(factor)
		return true
	}
	return false
}

// Testbed is a named collection of sites.
type Testbed struct {
	sites map[string]*Site
	order []string
}

// NewTestbed instantiates all configs on the engine. Site RNG namespaces are
// derived from the root RNG by site name.
func NewTestbed(eng *sim.Sim, configs []Config, root *sim.RNG) (*Testbed, error) {
	tb := &Testbed{sites: make(map[string]*Site)}
	for _, cfg := range configs {
		if _, dup := tb.sites[cfg.Name]; dup {
			return nil, fmt.Errorf("site: duplicate name %q", cfg.Name)
		}
		s, err := New(eng, cfg, root.Child("site:"+cfg.Name))
		if err != nil {
			return nil, err
		}
		tb.sites[cfg.Name] = s
		tb.order = append(tb.order, cfg.Name)
	}
	return tb, nil
}

// Site returns the named site, or nil.
func (t *Testbed) Site(name string) *Site { return t.sites[name] }

// Sites returns all sites in registration order.
func (t *Testbed) Sites() []*Site {
	out := make([]*Site, 0, len(t.order))
	for _, n := range t.order {
		out = append(out, t.sites[n])
	}
	return out
}

// DefaultTestbed returns the five-resource configuration standing in for the
// paper's four XSEDE machines plus NERSC Hopper. The wait models are
// calibrated so that (a) single-resource waits are heavy-tailed with means in
// the paper's observed 600–8600 s band and (b) the minimum over three
// resources concentrates into the 99–2800 s band, reproducing the late-
// binding normalization effect. Geometry loosely follows the real machines.
func DefaultTestbed() []Config {
	return []Config{
		{
			Name: "stampede", Nodes: 6400, CoresPerNode: 16, Architecture: "beowulf",
			WaitModel: batch.WaitModel{
				MedianWait: 25 * time.Minute, Sigma: 1.5, WidthFactor: 2.5,
				MinWait: 45 * time.Second, MaxWait: 24 * time.Hour,
			},
			SubmitLatency: 4 * time.Second,
			BandwidthMBps: 12, NetLatency: 150 * time.Millisecond, StorageGB: 14000,
		},
		{
			Name: "comet", Nodes: 1944, CoresPerNode: 24, Architecture: "beowulf",
			WaitModel: batch.WaitModel{
				MedianWait: 15 * time.Minute, Sigma: 1.4, WidthFactor: 3.0,
				MinWait: 30 * time.Second, MaxWait: 18 * time.Hour,
			},
			SubmitLatency: 3 * time.Second,
			BandwidthMBps: 10, NetLatency: 120 * time.Millisecond, StorageGB: 7000,
		},
		{
			Name: "gordon", Nodes: 1024, CoresPerNode: 16, Architecture: "beowulf",
			WaitModel: batch.WaitModel{
				MedianWait: 10 * time.Minute, Sigma: 1.3, WidthFactor: 3.5,
				MinWait: 30 * time.Second, MaxWait: 12 * time.Hour,
			},
			SubmitLatency: 3 * time.Second,
			BandwidthMBps: 8, NetLatency: 110 * time.Millisecond, StorageGB: 4000,
		},
		{
			Name: "blacklight", Nodes: 256, CoresPerNode: 16, Architecture: "shared-memory",
			WaitModel: batch.WaitModel{
				MedianWait: 45 * time.Minute, Sigma: 1.7, WidthFactor: 4.0,
				MinWait: 60 * time.Second, MaxWait: 36 * time.Hour,
			},
			SubmitLatency: 5 * time.Second,
			BandwidthMBps: 6, NetLatency: 140 * time.Millisecond, StorageGB: 2000,
		},
		{
			Name: "hopper", Nodes: 6384, CoresPerNode: 24, Architecture: "cray",
			WaitModel: batch.WaitModel{
				MedianWait: 30 * time.Minute, Sigma: 1.6, WidthFactor: 2.0,
				MinWait: 45 * time.Second, MaxWait: 24 * time.Hour,
			},
			SubmitLatency: 6 * time.Second,
			BandwidthMBps: 9, NetLatency: 160 * time.Millisecond, StorageGB: 10000,
		},
	}
}

// EmergentTestbed converts configs to emergent-queue mode with the given
// background utilization, for the cross-validation ablation.
func EmergentTestbed(configs []Config, util float64) []Config {
	out := make([]Config, len(configs))
	for i, c := range configs {
		c.Mode = Emergent
		c.BackgroundUtil = util
		// Emergent mode needs a tractable machine size: scale node counts
		// down while keeping heterogeneity ratios.
		if c.Nodes > 1024 {
			c.Nodes = 1024
		}
		out[i] = c
	}
	return out
}
