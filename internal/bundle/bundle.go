// Package bundle implements the paper's Bundle abstraction: a uniform
// characterization of heterogeneous resources across compute, network and
// storage categories, exposed through two interfaces — querying (on-demand
// and predictive modes) and monitoring (threshold subscriptions). The
// paper's "future work" discovery interface is not built.
package bundle

import (
	"slices"
	"time"

	"aimes/internal/site"
)

// ComputeInfo is the compute-category representation of one resource.
type ComputeInfo struct {
	Name         string
	Architecture string
	Nodes        int
	CoresPerNode int
	TotalCores   int

	// Dynamic state from the on-demand query mode.
	FreeNodes          int
	RunningJobs        int
	QueuedJobs         int
	QueuedNodeSeconds  float64
	Utilization        float64
	InstantUtilization float64

	// SetupTime is the predicted median queue wait — the paper's
	// platform-neutral "setup time" measure (queue wait on HPC, VM startup
	// on clouds).
	SetupTime time.Duration
}

// NetworkInfo is the network-category representation.
type NetworkInfo struct {
	BandwidthMBps float64
	Latency       time.Duration
	// ActiveTransfers is the current staging concurrency.
	ActiveTransfers int
}

// StorageInfo is the storage-category representation.
type StorageInfo struct {
	CapacityGB float64
}

// Resource is one resource bundle entry: a live characterization agent
// attached to a site. It does not own the resource — multiple bundles may
// share a site.
type Resource struct {
	s *site.Site
	// waits is the predictive history, queue waits in seconds: a FIFO of
	// the last maxHistory observations, oldest at next once it is full.
	// sorted holds the same waits in ascending order, so a prediction
	// indexes it instead of sorting a copy. The two share one array.
	waits  []float64
	next   int
	sorted []float64
}

// maxHistory caps a resource's wait history; the oldest wait is evicted.
const maxHistory = 4096

// NewResource attaches a characterization agent to a site.
func NewResource(s *site.Site) *Resource {
	return &Resource{s: s}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.s.Name() }

// Compute performs an on-demand compute query.
func (r *Resource) Compute() ComputeInfo {
	cfg := r.s.Config()
	snap := r.s.Queue().Snapshot()
	setup := time.Duration(0)
	if med, ok := r.Predict(0.5, 0.95); ok {
		setup = med
	}
	return ComputeInfo{
		Name:               cfg.Name,
		Architecture:       cfg.Architecture,
		Nodes:              cfg.Nodes,
		CoresPerNode:       cfg.CoresPerNode,
		TotalCores:         cfg.Cores(),
		FreeNodes:          snap.FreeNodes,
		RunningJobs:        snap.RunningJobs,
		QueuedJobs:         snap.QueuedJobs,
		QueuedNodeSeconds:  snap.QueuedNodeSeconds,
		Utilization:        snap.Utilization,
		InstantUtilization: snap.InstantUtilization,
		SetupTime:          setup,
	}
}

// Network performs an on-demand network query.
func (r *Resource) Network() NetworkInfo {
	cfg := r.s.Config()
	return NetworkInfo{
		BandwidthMBps:   cfg.BandwidthMBps,
		Latency:         cfg.NetLatency,
		ActiveTransfers: r.s.Link().Active(),
	}
}

// Storage performs an on-demand storage query.
func (r *Resource) Storage() StorageInfo {
	return StorageInfo{CapacityGB: r.s.Config().StorageGB}
}

// EstimateTransfer answers the paper's end-to-end query "how long would it
// take to transfer a file of this size to the resource": an idle-link
// estimate, useful within an order of magnitude.
func (r *Resource) EstimateTransfer(bytes int64) time.Duration {
	return r.s.Link().Estimate(bytes)
}

// ObserveWait records one observed queue wait (seconds) into the predictive
// history. Every execution feeds its activated pilots' waits back when it
// finishes.
func (r *Resource) ObserveWait(seconds float64) {
	if n := len(r.waits); n == maxHistory {
		old := r.waits[r.next]
		r.waits[r.next] = seconds
		r.next = (r.next + 1) % maxHistory
		i, _ := slices.BinarySearch(r.sorted, old)
		r.sorted = slices.Delete(r.sorted, i, i+1)
	} else {
		if n == cap(r.waits) {
			// Both lists grow in one allocation: most environments see a
			// few dozen waits per resource (bench's paper-matrix counts
			// allocations per job).
			c := min(max(16, 2*n), maxHistory)
			buf := make([]float64, 2*c)
			r.waits = append(buf[:0:c], r.waits...)
			r.sorted = append(buf[c:c], r.sorted...)
		}
		r.waits = append(r.waits, seconds)
	}
	i, _ := slices.BinarySearch(r.sorted, seconds)
	r.sorted = slices.Insert(r.sorted, i, seconds)
}

// HistoryLen reports the number of recorded wait observations.
func (r *Resource) HistoryLen() int { return len(r.waits) }

// Predict implements the predictive query mode for queue waits: the QBETS-
// style conservative empirical quantile (see predictor.go). It returns the
// predicted bound for the given quantile at the given confidence, and false
// when the history is too thin to predict.
func (r *Resource) Predict(quantile, confidence float64) (time.Duration, bool) {
	secs, ok := QuantileBound(r.sorted, quantile, confidence)
	if !ok {
		return 0, false
	}
	return time.Duration(secs * float64(time.Second)), true
}

// Bundle aggregates resource entries and exposes aggregated operations, "a
// convenient handle for performing aggregated operations such as querying
// and monitoring".
type Bundle struct {
	resources map[string]*Resource
	order     []string
}

// New builds a bundle over the given sites.
func New(sites []*site.Site) *Bundle {
	b := &Bundle{resources: make(map[string]*Resource)}
	for _, s := range sites {
		r := NewResource(s)
		b.resources[s.Name()] = r
		b.order = append(b.order, s.Name())
	}
	return b
}

// Resource returns the named entry, or nil.
func (b *Bundle) Resource(name string) *Resource { return b.resources[name] }

// Resources returns all entries in registration order.
func (b *Bundle) Resources() []*Resource {
	out := make([]*Resource, 0, len(b.order))
	for _, n := range b.order {
		out = append(out, b.resources[n])
	}
	return out
}

// Size reports the number of resources.
func (b *Bundle) Size() int { return len(b.order) }

// QueryAll performs an on-demand compute query across the whole bundle.
func (b *Bundle) QueryAll() []ComputeInfo {
	out := make([]ComputeInfo, 0, b.Size())
	for _, r := range b.Resources() {
		out = append(out, r.Compute())
	}
	return out
}
