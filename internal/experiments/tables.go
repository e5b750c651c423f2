package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"aimes/internal/stats"
)

// Cell aggregates the repetitions of one (experiment, size) point.
type Cell struct {
	Exp    int
	NTasks int
	N      int // repetitions aggregated

	TTC stats.Summary
	Tw  stats.Summary
	Tx  stats.Summary
	Ts  stats.Summary

	Failures int // runs that returned an error or failed units
}

// Aggregate groups results by (experiment, size). Runs with errors count as
// failures and contribute no samples.
func Aggregate(results []Result) map[int]map[int]*Cell {
	out := make(map[int]map[int]*Cell)
	for _, r := range results {
		byExp, ok := out[r.Exp]
		if !ok {
			byExp = make(map[int]*Cell)
			out[r.Exp] = byExp
		}
		cell, ok := byExp[r.NTasks]
		if !ok {
			cell = &Cell{Exp: r.Exp, NTasks: r.NTasks}
			byExp[r.NTasks] = cell
		}
		if r.Err != "" || r.UnitsFailed > 0 {
			cell.Failures++
			continue
		}
		cell.N++
		cell.TTC.Add(r.TTC)
		cell.Tw.Add(r.Tw)
		cell.Tx.Add(r.Tx)
		cell.Ts.Add(r.Ts)
	}
	return out
}

// sizesOf returns the sorted sizes present for an experiment.
func sizesOf(byExp map[int]*Cell) []int {
	var sizes []int
	for n := range byExp {
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)
	return sizes
}

// WriteTableI prints the experiment/strategy matrix of the paper's Table I,
// with the walltime formulas the strategies derive.
func WriteTableI(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "Table I: skeleton applications and execution strategies"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "exp  #tasks       duration          binding  scheduler  #pilots  pilot_size        walltime"); err != nil {
		return err
	}
	for _, d := range TableI {
		dur := "15 min constant"
		if d.Duration == TruncGaussian {
			dur = "1-30m trunc.Gauss"
		}
		size := "#tasks"
		wall := "Tx+Ts+Trp"
		if d.Pilots > 1 {
			size = fmt.Sprintf("#tasks/%d", d.Pilots)
			wall = fmt.Sprintf("(Tx+Ts+Trp)*%d", d.Pilots)
		}
		if _, err := fmt.Fprintf(w, "%3d  2^n n=[3,11]  %-17s %-8s %-10s %7d  %-16s  %s\n",
			d.ID, dur, d.Binding, d.Scheduler, d.Pilots, size, wall); err != nil {
			return err
		}
	}
	return nil
}

// WriteFigure2 prints the TTC comparison across all four experiments as a
// function of application size — the series of the paper's Figure 2.
func WriteFigure2(w io.Writer, agg map[int]map[int]*Cell) error {
	if _, err := fmt.Fprintln(w, "Figure 2: TTC comparison (seconds, mean over reps)"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "ntasks     exp1     exp2     exp3     exp4"); err != nil {
		return err
	}
	sizes := map[int]bool{}
	for _, byExp := range agg {
		for n := range byExp {
			sizes[n] = true
		}
	}
	var order []int
	for n := range sizes {
		order = append(order, n)
	}
	sort.Ints(order)
	for _, n := range order {
		if _, err := fmt.Fprintf(w, "%6d", n); err != nil {
			return err
		}
		for exp := 1; exp <= 4; exp++ {
			cell := agg[exp][n]
			if cell == nil || cell.N == 0 {
				if _, err := fmt.Fprintf(w, "  %7s", "-"); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "  %7.0f", cell.TTC.Mean()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteFigure3 prints the TTC decomposition (TTC, Tw, Tx, Ts) for one
// experiment — one panel of the paper's Figure 3.
func WriteFigure3(w io.Writer, agg map[int]map[int]*Cell, exp int) error {
	byExp := agg[exp]
	if byExp == nil {
		return fmt.Errorf("experiments: no results for experiment %d", exp)
	}
	def, err := Experiment(exp)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "Figure 3(%c): %s (Exp. %d) — seconds, mean over reps\n",
		'a'+exp-1, def.Label(), exp); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "ntasks      TTC       Tw       Tx       Ts"); err != nil {
		return err
	}
	for _, n := range sizesOf(byExp) {
		cell := byExp[n]
		if cell.N == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%6d  %7.0f  %7.0f  %7.0f  %7.0f\n",
			n, cell.TTC.Mean(), cell.Tw.Mean(), cell.Tx.Mean(), cell.Ts.Mean()); err != nil {
			return err
		}
	}
	return nil
}

// WriteFigure4 prints TTC with error bars (std over reps) for the early-
// uniform and late-uniform strategies — the paper's Figure 4 (a) and (b).
func WriteFigure4(w io.Writer, agg map[int]map[int]*Cell) error {
	for i, exp := range []int{1, 3} {
		def, err := Experiment(exp)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "Figure 4(%c): TTC %s (Exp. %d) — seconds\n",
			'a'+i, def.Label(), exp); err != nil {
			return err
		}
		byExp := agg[exp]
		if byExp == nil {
			return fmt.Errorf("experiments: no results for experiment %d", exp)
		}
		if _, err := fmt.Fprintln(w, "ntasks     mean      std      min      max"); err != nil {
			return err
		}
		for _, n := range sizesOf(byExp) {
			cell := byExp[n]
			if cell.N == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%6d  %7.0f  %7.0f  %7.0f  %7.0f\n",
				n, cell.TTC.Mean(), cell.TTC.Std(), cell.TTC.Min(), cell.TTC.Max()); err != nil {
				return err
			}
		}
	}
	return nil
}

// csvHeader names WriteCSV's columns.
var csvHeader = []string{"exp", "label", "ntasks", "rep", "ttc_s", "tw_s", "tx_s", "ts_s",
	"done", "failed", "restarts", "throughput_per_h", "core_hours", "efficiency", "err"}

// WriteCSV streams raw results for external analysis, one record per run. A
// failed run's error text is free-form — commas, quotes, line breaks — so the
// fields are quoted as encoding/csv quotes them.
func WriteCSV(w io.Writer, results []Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	fixed := func(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }
	for _, r := range results {
		if err := cw.Write([]string{
			strconv.Itoa(r.Exp), r.Label, strconv.Itoa(r.NTasks), strconv.Itoa(r.Rep),
			fixed(r.TTC, 1), fixed(r.Tw, 1), fixed(r.Tx, 1), fixed(r.Ts, 1),
			strconv.Itoa(r.UnitsDone), strconv.Itoa(r.UnitsFailed), strconv.Itoa(r.Restarts),
			fixed(r.Throughput, 1), fixed(r.CoreHours, 2), fixed(r.Efficiency, 3), r.Err,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CheckShape verifies the paper's qualitative results against aggregated
// data and returns a list of violations (empty = all shape criteria hold):
//
//  1. late binding beats early binding on mean TTC at (almost) every size,
//  2. Tw dominates: the largest TTC component on average,
//  3. Ts grows with size and stays a minor component,
//  4. early-binding TTC variance far exceeds late-binding variance.
func CheckShape(agg map[int]map[int]*Cell) []string {
	var violations []string

	// (1) Late vs early per size, uniform and Gaussian, allowing one
	// crossover from sampling noise.
	for _, pair := range [][2]int{{1, 3}, {2, 4}} {
		early, late := agg[pair[0]], agg[pair[1]]
		if early == nil || late == nil {
			violations = append(violations, fmt.Sprintf("missing experiments %v", pair))
			continue
		}
		cross := 0
		sizes := 0
		for _, n := range sizesOf(early) {
			e, l := early[n], late[n]
			if e == nil || l == nil || e.N == 0 || l.N == 0 {
				continue
			}
			sizes++
			if l.TTC.Mean() >= e.TTC.Mean() {
				cross++
			}
		}
		if sizes > 0 && cross > sizes/3 {
			violations = append(violations,
				fmt.Sprintf("exp %d not beating exp %d: %d/%d sizes crossed", pair[1], pair[0], cross, sizes))
		}
	}

	// (2) Tw dominance for early binding (its defining failure mode).
	for exp := 1; exp <= 2; exp++ {
		byExp := agg[exp]
		if byExp == nil {
			continue
		}
		var twSum, txSum, tsSum float64
		for _, cell := range byExp {
			if cell.N == 0 {
				continue
			}
			twSum += cell.Tw.Mean()
			txSum += cell.Tx.Mean()
			tsSum += cell.Ts.Mean()
		}
		if twSum < txSum || twSum < tsSum {
			violations = append(violations,
				fmt.Sprintf("exp %d: Tw (%.0f) does not dominate Tx (%.0f)/Ts (%.0f)", exp, twSum, txSum, tsSum))
		}
	}

	// (3) Ts monotone-ish growth and minority share, checked on exp 1.
	if byExp := agg[1]; byExp != nil {
		sizes := sizesOf(byExp)
		if len(sizes) >= 2 {
			first, last := byExp[sizes[0]], byExp[sizes[len(sizes)-1]]
			if first.N > 0 && last.N > 0 {
				if last.Ts.Mean() <= first.Ts.Mean() {
					violations = append(violations, "Ts does not grow with task count")
				}
				if last.Ts.Mean() > last.TTC.Mean()/2 {
					violations = append(violations, "Ts not a minor TTC component")
				}
			}
		}
	}

	// (4) Variance comparison on the uniform pair (Figure 4).
	if early, late := agg[1], agg[3]; early != nil && late != nil {
		var se, sl float64
		for _, n := range sizesOf(early) {
			if e := early[n]; e != nil && e.N > 1 {
				se += e.TTC.Std()
			}
			if l := late[n]; l != nil && l.N > 1 {
				sl += l.TTC.Std()
			}
		}
		if sl*2 >= se {
			violations = append(violations,
				fmt.Sprintf("late-binding TTC std (%.0f) not well below early (%.0f)", sl, se))
		}
	}
	return violations
}
