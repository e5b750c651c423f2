package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles judges two sets of runs (files of -out records), a then b.
// Runs are paired by workload and seed — the i-th run of a seed in a with
// the i-th in b — because one seed drives the same inputs on both sides, so
// a pair differs by the code and the runner, not by the draw of inputs. Per
// workload and end-to-end metric it takes each pair's change (b against a,
// as a share of a, positive when b is worse) and prints one of:
//
//	same        the median change is within the metric's paired bound
//	worse       it is not
//	unresolved  the changes spread wider (first to third quartile) than the
//	            bound, so a shift of the bound's size cannot be told from
//	            noise
//
// b reading no worse than a in every pair, or worse by more than the bound
// in every pair, settles the verdict whatever the spread. The exit code is 0
// when every row is "same".
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-15s %-20s %5s %12s %12s %8s %7s %6s  %s\n",
		"workload", "metric", "pairs", "a median", "b median", "change", "spread", "bound", "verdict")
	bad, rows := 0, 0
	for _, w := range workloads {
		var pa, pb []record
		for _, k := range a.order {
			if k.workload != w.name {
				continue
			}
			for i := 0; i < min(len(a.runs[k]), len(b.runs[k])); i++ {
				ra, rb := a.runs[k][i], b.runs[k][i]
				if ra.Rounds != rb.Rounds {
					fmt.Fprintf(stderr, "bench: %s seed %d: %d rounds in %s, %d in %s: not the same inputs\n",
						w.name, k.seed, ra.Rounds, pathA, rb.Rounds, pathB)
					return 2
				}
				pa, pb = append(pa, ra), append(pb, rb)
			}
		}
		if len(pa) == 0 {
			continue
		}
		for _, m := range endToEnd {
			var va, vb, changes []float64
			for i := range pa {
				x, y := pa[i].Metrics[m.Name].Value, pb[i].Metrics[m.Name].Value
				if x == 0 {
					continue
				}
				change := (y - x) / x
				if m.Better == "higher" && change != 0 {
					change = -change
				}
				va, vb, changes = append(va, x), append(vb, y), append(changes, change)
			}
			if len(changes) == 0 {
				continue
			}
			bound := m.pairedBound(w)
			q1, q3 := quartiles(changes)
			verdict := judge(changes, bound)
			if verdict != "same" {
				bad++
			}
			rows++
			fmt.Fprintf(stdout, "%-15s %-20s %5d %12.6g %12.6g %+7.2f%% %6.2f%% %5.1f%%  %s\n",
				w.name, m.Name, len(changes), median(va), median(vb), 100*median(changes), 100*(q3-q1), 100*bound, verdict)
		}
	}
	switch {
	case rows == 0:
		fmt.Fprintf(stderr, "bench: %s and %s share no untraced run of one workload and seed\n", pathA, pathB)
		return 2
	case bad > 0:
		return 1
	}
	return 0
}

// judge gives the verdict on one row's per-pair changes, positive when b is
// worse.
func judge(changes []float64, bound float64) string {
	s := sortedCopy(changes)
	q1, q3 := quartiles(s)
	switch {
	case s[len(s)-1] <= 0:
		return "same" // b is no worse than a in every pair
	case s[0] > bound:
		return "worse" // in every pair
	case q3-q1 > bound:
		return "unresolved"
	case median(s) > bound:
		return "worse"
	}
	return "same"
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := sortedCopy(xs)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return quartile(1), quartile(3)
}

// runKey names the inputs of a run: one workload and seed always drive the
// same epochs.
type runKey struct {
	workload string
	seed     int64
}

type recordSet struct {
	order []runKey // first appearance
	runs  map[runKey][]record
}

// readRecords groups the untraced records of a file by workload and seed.
func readRecords(path string) (recordSet, error) {
	set := recordSet{runs: map[runKey][]record{}}
	f, err := os.Open(path)
	if err != nil {
		return set, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return set, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		k := runKey{rec.Workload, rec.Seed}
		if _, seen := set.runs[k]; !seen {
			set.order = append(set.order, k)
		}
		set.runs[k] = append(set.runs[k], rec)
	}
	if err := sc.Err(); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}
