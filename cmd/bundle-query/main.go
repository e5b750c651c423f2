// Command bundle-query exercises the Bundle abstraction's query interface
// against the simulated testbed: on-demand queries of compute/network/
// storage characterizations and predictive queue-wait bounds.
//
// Usage:
//
//	bundle-query                                  # characterize all resources
//	bundle-query -predict -history 256            # QBETS-style wait bounds
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"text/tabwriter"

	"aimes"
	"aimes/internal/bundle"
	"aimes/internal/site"
)

func main() {
	var (
		predict = flag.Bool("predict", false, "print predictive queue-wait bounds")
		history = flag.Int("history", 128, "archived wait observations to replay per resource")
		seed    = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()

	if err := run(os.Stdout, *predict, *history, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "bundle-query:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, predict bool, history int, seed int64) error {
	env, err := aimes.NewEnv(aimes.WithSeed(seed))
	if err != nil {
		return err
	}
	b := env.Bundle()
	primeHistory(b, history, seed)

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	if predict {
		fmt.Fprintln(tw, "resource\tmedian-bound\tp90-bound\tobservations")
		for _, r := range b.Resources() {
			med, okM := r.Predict(0.5, 0.95)
			p90, okP := r.Predict(0.9, 0.95)
			if !okM || !okP {
				fmt.Fprintf(tw, "%s\t-\t-\t%d\n", r.Name(), r.HistoryLen())
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\n", r.Name(), med.Round(1e9), p90.Round(1e9), r.HistoryLen())
		}
		return tw.Flush()
	}

	fmt.Fprintln(tw, "resource\tarch\tnodes\tcores\tbandwidth\tstorage\tsetup-time")
	for _, r := range b.Resources() {
		info := r.Compute()
		net := r.Network()
		st := r.Storage()
		setup := "-"
		if info.SetupTime > 0 {
			setup = info.SetupTime.Round(1e9).String()
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.0f MB/s\t%.0f GB\t%s\n",
			info.Name, info.Architecture, info.Nodes, info.TotalCores,
			net.BandwidthMBps, st.CapacityGB, setup)
	}
	return tw.Flush()
}

// primeHistory replays archived wait observations so predictive queries have
// data, standing in for a long-running bundle agent's accumulated history.
func primeHistory(b *bundle.Bundle, n int, seed int64) {
	for _, cfg := range site.DefaultTestbed() {
		r := b.Resource(cfg.Name)
		if r == nil {
			continue
		}
		rng := rand.New(rand.NewSource(seed ^ int64(len(cfg.Name))*104729))
		for i := 0; i < n; i++ {
			r.ObserveWait(cfg.WaitModel.SampleWait(rng, 1, cfg.Nodes).Seconds())
		}
	}
}
