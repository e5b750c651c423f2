package experiments

import (
	"fmt"
	"io"
	"time"

	"aimes/internal/scenario"
)

// ablationOutages compares early and late binding under increasing outage
// rates — the experiment the paper gestures at (§V, "dynamic resources")
// but never runs. Each run drives the scenario engine: a compressed-wait
// testbed, a fixed pilot placement, and k hard outages injected mid-run
// that kill the pilot (and its running units) on the failed resource. Both
// arms replan lost pilots onto unused resources; what differs is the
// binding. Early binding funnels the whole workload through one pilot, so
// every outage serializes a full re-run behind a fresh queue wait; late
// binding only loses the failed pilot's share and backfills the returned
// units onto surviving pilots immediately.
func ablationOutages(w io.Writer, ntasks, reps, workers int) error {
	var arms []arm[*scenario.Outcome]
	for _, outages := range []int{0, 1, 2} {
		for _, binding := range []string{"early", "late"} {
			arms = append(arms, arm[*scenario.Outcome]{fmt.Sprintf("%7d  %-7s", outages, binding),
				func(rep int) (*scenario.Outcome, error) {
					out, err := scenario.Run(outageScenario(binding, ntasks, outages, int64(10_000+rep)), scenario.EnvOptions{})
					if err == nil && out.Jobs[0].Report == nil {
						err = fmt.Errorf("job %s: %s", out.Jobs[0].State, out.Jobs[0].Err)
					}
					return out, err
				}})
		}
	}
	return sweep(w,
		fmt.Sprintf("Ablation A11: mid-run outages, %d tasks, early vs late binding (seconds)", ntasks),
		"outages  binding   mean_ttc      p90  units_done  rescheduled", reps, workers, arms,
		func(rs []*scenario.Outcome) string {
			t := over(rs, func(o *scenario.Outcome) float64 { return o.Jobs[0].Report.TTC.Seconds() })
			return fmt.Sprintf("%9.0f  %7.0f  %10.0f  %11.0f", t.Mean(), t.Percentile(90),
				over(rs, func(o *scenario.Outcome) float64 { return float64(o.Jobs[0].Report.UnitsDone) }).Sum(),
				over(rs, func(o *scenario.Outcome) float64 { return float64(o.Rescheduled) }).Sum())
		})
}

// outageScenario builds one ablation run: both arms share the testbed, the
// timescale-compressed waits, the adaptive replanning budget, and the outage
// timeline; only the binding (and its Table I pilot count) differs.
func outageScenario(binding string, ntasks, outages int, seed int64) *scenario.Scenario {
	strat := scenario.StrategySpec{
		Binding:   binding,
		Pilots:    1,
		Resources: []string{"stampede"},
		Adaptive: &scenario.AdaptiveSpec{
			Patience:          scenario.Duration(10 * time.Minute),
			ReplaceLostPilots: true,
			MaxReplacements:   3,
		},
	}
	if binding == "late" {
		strat.Pilots = 3
		strat.Resources = []string{"stampede", "comet", "gordon"}
	}
	// Outages are transient: each resource recovers 35 minutes later. A
	// pilot caught queued on the failed resource is held until recovery —
	// with early binding the bound workload waits out the whole outage,
	// while late binding flows to surviving pilots immediately.
	var events []scenario.Event
	outageTimes := []time.Duration{6 * time.Minute, 11 * time.Minute}
	outageTargets := []string{"stampede", "comet"}
	for i := 0; i < outages && i < len(outageTimes); i++ {
		events = append(events,
			scenario.Event{
				At:     scenario.Duration(outageTimes[i]),
				Action: scenario.ActionOutage,
				Target: outageTargets[i],
			},
			scenario.Event{
				At:     scenario.Duration(outageTimes[i] + 35*time.Minute),
				Action: scenario.ActionRecover,
				Target: outageTargets[i],
			})
	}
	return &scenario.Scenario{
		Name:     fmt.Sprintf("outage-ablation-%s-%d", binding, outages),
		Seed:     seed,
		Workload: scenario.WorkloadSpec{Tasks: ntasks, Duration: "10m"},
		Strategy: strat,
		Testbed: scenario.TestbedSpec{
			Sites: []scenario.SiteSpec{
				{Name: "stampede", MedianWait: scenario.Duration(2 * time.Minute)},
				{Name: "comet", MedianWait: scenario.Duration(3 * time.Minute)},
				{Name: "gordon", MedianWait: scenario.Duration(3 * time.Minute)},
				{Name: "blacklight", MedianWait: scenario.Duration(4 * time.Minute)},
				{Name: "hopper", MedianWait: scenario.Duration(4 * time.Minute)},
			},
		},
		Events: events,
	}
}
