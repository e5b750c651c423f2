package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"aimes/internal/bundle"
	"aimes/internal/pilot"
	"aimes/internal/skeleton"
	"aimes/internal/stats"
)

// AdaptiveConfig extends an execution with runtime strategy adaptation — the
// paper's §V direction of "dynamic execution where application strategies
// change during execution to maintain the coupling between dynamic
// workloads and dynamic resources". The concrete policy: if no pilot has
// become active after Patience, the execution manager widens the coupling by
// submitting an extra pilot on the best unused resource, repeating up to
// MaxExtraPilots times.
type AdaptiveConfig struct {
	// Patience is how long to wait for the first activation before adapting.
	Patience time.Duration
	// MaxExtraPilots bounds the number of adaptation rounds (default 2).
	MaxExtraPilots int
	// ReplaceLostPilots replans when a resource dies mid-run: a pilot that
	// ends PilotFailed (outage, preemption) is replaced by a fresh pilot on
	// the best unused feasible resource, keeping the strategy's concurrency.
	ReplaceLostPilots bool
	// MaxReplacements bounds replacement rounds (default 2; only meaningful
	// with ReplaceLostPilots).
	MaxReplacements int
}

// Validate reports a descriptive error for malformed configurations.
func (c AdaptiveConfig) Validate() error {
	if c.Patience <= 0 {
		return fmt.Errorf("core: adaptive patience %v must be positive", c.Patience)
	}
	if c.MaxExtraPilots < 0 {
		return fmt.Errorf("core: negative extra-pilot budget %d", c.MaxExtraPilots)
	}
	if c.MaxReplacements < 0 {
		return fmt.Errorf("core: negative replacement budget %d", c.MaxReplacements)
	}
	return nil
}

// adapt arms runtime adaptation on a just-enacted execution (Enact's last
// step, for Descriptor.Adaptive). Extra pilots appear in the report's
// ExtraPilots count and in the trace as "em"/"ADAPTED" records.
func (e *Execution) adapt(acfg AdaptiveConfig) {
	if acfg.MaxExtraPilots == 0 {
		acfg.MaxExtraPilots = 2
	}
	e.scheduleAdaptation(acfg, acfg.MaxExtraPilots)
	if acfg.ReplaceLostPilots {
		if acfg.MaxReplacements == 0 {
			acfg.MaxReplacements = 2
		}
		e.replaceBudget = acfg.MaxReplacements
		e.watchForLoss = true
		for p := range e.pm.All() {
			e.watchPilot(p)
		}
	}
}

// watchPilot arms lost-pilot replacement for one pilot. Replacement fires on
// PilotFailed only: Done and Canceled are orderly retirements that must not
// trigger replanning (CancelAll at completion would otherwise spawn pilots).
func (e *Execution) watchPilot(p *pilot.Pilot) {
	e.m.eng.Schedule(0, func() {
		// Deferred a tick so a pilot that fails synchronously during Submit
		// does not replan before Enact returns.
		p.OnState(func(p *pilot.Pilot) { e.pilotLost(p) })
		if p.State() == pilot.PilotFailed {
			e.pilotLost(p)
		}
	})
}

func (e *Execution) pilotLost(p *pilot.Pilot) {
	if e.done || !e.watchForLoss || p.State() != pilot.PilotFailed {
		return
	}
	if e.replaceBudget <= 0 {
		return
	}
	e.replaceBudget--
	if e.addPilot() {
		e.extraPilots++
		e.trace.Record(e.m.eng.Now(), "em", "REPLANNED", "replaced lost "+p.ID())
	} else {
		e.trace.Record(e.m.eng.Now(), "em", "REPLAN_FAILED", "no resource left for "+p.ID())
	}
}

// scheduleAdaptation arms the watchdog for the next adaptation round.
func (e *Execution) scheduleAdaptation(acfg AdaptiveConfig, budget int) {
	if budget <= 0 {
		return
	}
	e.m.eng.Schedule(acfg.Patience, func() {
		if e.done || e.anyPilotActive() {
			return
		}
		if e.addPilot() {
			e.extraPilots++
			budget--
		} else {
			// No resource left to widen onto; stop adapting.
			return
		}
		e.scheduleAdaptation(acfg, budget)
	})
}

func (e *Execution) anyPilotActive() bool {
	for p := range e.pm.All() {
		if p.State() == pilot.PilotActive {
			return true
		}
	}
	return false
}

// addPilot submits one extra pilot on the best unused feasible resource
// (lowest predicted median wait; unpredicted resources sort last). It
// reports whether a pilot was added.
func (e *Execution) addPilot() bool {
	used := map[string]bool{}
	for p := range e.pm.All() {
		used[p.Resource()] = true
	}
	type candidate struct {
		name string
		wait time.Duration
	}
	var pool []candidate
	for r := range e.m.bundle.All() {
		if used[r.Name()] {
			continue
		}
		info := r.Compute()
		if info.TotalCores < e.strategy.PilotCores {
			continue
		}
		wait := time.Duration(math.MaxInt64)
		if w, ok := r.Predict(0.5, 0.95); ok {
			wait = w
		}
		pool = append(pool, candidate{name: r.Name(), wait: wait})
	}
	if len(pool) == 0 {
		return false
	}
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].wait < pool[j].wait })
	target := pool[0].name

	p, err := e.pm.Submit(pilot.PilotDescription{
		Resource: target,
		Cores:    e.strategy.PilotCores,
		Walltime: e.strategy.PilotWalltime,
	})
	if err != nil {
		e.trace.Record(e.m.eng.Now(), "em", "ADAPT_FAILED", err.Error())
		return false
	}
	e.um.AddPilot(p)
	if e.watchForLoss {
		e.watchPilot(p)
	}
	e.trace.Record(e.m.eng.Now(), "em", "ADAPTED", "extra pilot on "+target)
	return true
}

// ChoosePilotCount implements the Execution Manager's semi-empirical
// heuristic for the TTC metric (§III-D): given bundle wait history it
// estimates, for each pilot count k, the expected TTC as
//
//	E[min wait over the k best resources] + waves(k) × mean task duration
//	+ staging estimate
//
// and returns the k with the lowest estimate. The expected minimum is
// computed by Monte Carlo over the recorded wait histories (the "empirical
// evidence about pilots and resources behavior" the paper calls for). It
// requires primed bundle history and falls back to 3 pilots — the paper's
// finding — when fewer than 8 observations exist anywhere.
func ChoosePilotCount(w *skeleton.Workload, b *bundle.Bundle, maxPilots int) int {
	if maxPilots <= 0 {
		maxPilots = b.Size()
	}
	if maxPilots > b.Size() {
		maxPilots = b.Size()
	}
	var hists []waitHist
	for r := range b.All() {
		if med, ok := r.Predict(0.5, 0.95); ok {
			hists = append(hists, waitHist{name: r.Name(), median: med.Seconds(), waits: historyOf(r)})
		}
	}
	if len(hists) == 0 {
		return min(3, maxPilots)
	}
	sort.SliceStable(hists, func(i, j int) bool { return hists[i].median < hists[j].median })

	meanDur := w.MeanDuration().Seconds()
	tasks := float64(w.TotalTasks())
	best, bestTTC := 1, math.Inf(1)
	for k := 1; k <= maxPilots && k <= len(hists); k++ {
		expMin, p90Min := expectedMinWait(hists[:k])
		// With pilots of size tasks/k, the worst case is k waves on the
		// first pilot; on average later pilots join partway: (k+1)/2 waves.
		waves := (float64(k) + 1) / 2
		// Risk-adjusted objective: queue waits are heavy-tailed, so a pure
		// mean estimate under-penalizes small k; charge part of the tail.
		ttc := expMin + 0.5*p90Min + waves*meanDur + tasks*0.05
		if ttc < bestTTC {
			bestTTC = ttc
			best = k
		}
	}
	return best
}

func historyOf(r *bundle.Resource) []float64 {
	// Sample the quantile curve rather than copying raw history; the tail
	// points (p96-p99) matter most, since heavy-tailed waits are exactly
	// what multiple pilots hedge against.
	var out []float64
	for q := 0.05; q < 0.96; q += 0.06 {
		if v, ok := bundleQuantile(r, q, 0.5); ok {
			out = append(out, v)
		}
	}
	for _, q := range []float64{0.97, 0.99} {
		if v, ok := bundleQuantile(r, q, 0.95); ok {
			out = append(out, v)
		}
	}
	return out
}

func bundleQuantile(r *bundle.Resource, q, confidence float64) (float64, bool) {
	d, ok := r.Predict(q, confidence)
	return d.Seconds(), ok
}

// waitHist is one resource's sampled wait-quantile curve.
type waitHist struct {
	name   string
	waits  []float64
	median float64
}

// expectedMinWait estimates the mean and 90th percentile of the minimum
// wait over resources by pairing quantile draws at staggered offsets: for
// independent waits the per-draw minima approximate the min distribution
// closely enough to choose k.
func expectedMinWait(hists []waitHist) (mean, p90 float64) {
	if len(hists) == 0 {
		return 0, 0
	}
	n := len(hists[0].waits)
	for _, h := range hists {
		if len(h.waits) < n {
			n = len(h.waits)
		}
	}
	if n == 0 {
		return hists[0].median, hists[0].median
	}
	minima := make([]float64, 0, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		m := math.Inf(1)
		for _, h := range hists {
			// Pair quantile i of one resource against random-ish offsets of
			// the others to avoid perfect correlation.
			idx := (i * (1 + len(h.name))) % n
			if h.waits[idx] < m {
				m = h.waits[idx]
			}
		}
		minima = append(minima, m)
		sum += m
	}
	return sum / float64(n), stats.Quantile(minima, 0.9)
}
