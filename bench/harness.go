package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// The run discipline. A run is a fixed number of rounds, 16 at the default;
// the clock never decides how much is run, so one seed always drives the
// same inputs. A round is a fixed number of fixed-size epochs, about a
// second of timed work. Every epoch of a run has its own inputs, generated
// from epochSeed(seed, k) for the run's k-th epoch, and runs on a freshly
// built environment (with fresh workers and server), built and closed
// outside the timed region, with a collection before the clock starts.
// Before every second round comes a set-up trial: generate the round's first
// epoch, build its stack, drive it once as a warm-up. The trial is timed for
// setup_s, and the epoch then runs twice, which is where the pinned
// workloads' determinism is checked. (A trial before every round would
// lengthen the run by a sixth.)
//
// Fresh environments, because one long-lived Environment keeps ~100 KB of
// trace per job: inside a single 10 000-job run throughput fell from 851 to
// 193 jobs/s as the heap grew. Distinct epochs, because simulated queue
// waits are heavy-tailed: with three epochs replayed for a whole run, runs
// of different seeds differed by 10% in jobs/s and 27% in mean TTC.
const (
	defaultSeconds = 20
	defaultRounds  = 16
)

// roundsFor turns the run length the driver asks for into a number of
// rounds: defaultRounds at defaultSeconds, in proportion otherwise.
func roundsFor(seconds float64) int {
	return max(1, int(math.Round(seconds*defaultRounds/defaultSeconds)))
}

// epochSeed spaces the runs of neighbouring seeds apart, so that no two of
// them share an epoch.
func epochSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// outcome is one job as its client saw it.
type outcome struct {
	latency time.Duration // due (open loop) or submit (closed loop) instant → verified report in hand
	ttc     time.Duration // Report.TTC, virtual time
	ok      bool          // finished DONE with every unit done
}

// epochStats is one epoch's timed region.
type epochStats struct {
	jobs       int
	wall       time.Duration
	cpu        time.Duration // this process inside the timed region + worker children over their lifetime
	mallocs    uint64
	allocBytes uint64
	retained   int64         // live heap after the epoch's jobs, before Close, minus live heap at its start
	openClose  time.Duration // building and closing the epoch's stack
	outcomes   []outcome
}

func cpuOf(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measureEpoch builds a fresh stack, drives one epoch's inputs through it
// and closes it. inspect, when non-nil, sees the stack after the timed
// region and the retained-heap reading, before Close.
func measureEpoch(w *workload, drive driveFunc, in epochInput, tr *tracer, inspect func(*stack)) (epochStats, error) {
	var es epochStats
	kids0 := cpuOf(syscall.RUSAGE_CHILDREN)
	t := time.Now()
	st, err := w.open(in.seed)
	if err != nil {
		return es, fmt.Errorf("%s: opening epoch stack: %w", w.name, err)
	}
	es.openClose = time.Since(t)

	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuOf(syscall.RUSAGE_SELF)
	t0 := time.Now()
	es.outcomes = drive(st, in, tr)
	es.wall = time.Since(t0)
	cpu1 := cpuOf(syscall.RUSAGE_SELF)
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)

	es.jobs = len(es.outcomes)
	es.mallocs = m1.Mallocs - m0.Mallocs
	es.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	es.retained = int64(m2.HeapAlloc) - int64(m0.HeapAlloc)
	if inspect != nil {
		inspect(st)
	}
	t = time.Now()
	st.close()
	es.openClose += time.Since(t)
	// Worker children are reaped by close, so their whole life — spawn,
	// this epoch's work, shutdown — is in RUSAGE_CHILDREN by now.
	es.cpu = cpu1 - cpu0 + cpuOf(syscall.RUSAGE_CHILDREN) - kids0
	return es, nil
}

// verifier checks every report and, on pinned workloads, that an epoch run
// a second time repeats each slot's TTC bit for bit (the per-shard
// determinism contract: same seed, same per-shard submission order, same
// report). Every second round warms up on its own first epoch, so eight
// epochs spread over the run are run twice.
type verifier struct {
	pinned    bool
	first     map[int][]time.Duration // epoch → per-slot TTC of its first run
	attempted int
	failed    int
	firstMiss string
}

func newVerifier(pinned bool) *verifier {
	return &verifier{pinned: pinned, first: map[int][]time.Duration{}}
}

// check counts the epoch's outcomes and returns the latencies (ms) and TTCs
// (s) of the jobs that passed. With remember set, the epoch's TTCs are kept
// for its second run to be compared against.
func (v *verifier) check(epoch int, outs []outcome, remember bool) (lat, ttc []float64) {
	ref, again := v.first[epoch]
	for i, o := range outs {
		v.attempted++
		switch {
		case !o.ok:
			v.miss(fmt.Sprintf("epoch %d slot %d did not finish DONE with every unit done", epoch, i))
		case v.pinned && again && (i >= len(ref) || o.ttc != ref[i]):
			v.miss(fmt.Sprintf("epoch %d slot %d: TTC %v differs from its first run", epoch, i, o.ttc))
		default:
			lat = append(lat, ms(o.latency))
			ttc = append(ttc, o.ttc.Seconds())
		}
	}
	if remember && !again {
		ref = make([]time.Duration, len(outs))
		for i, o := range outs {
			ref[i] = o.ttc
		}
		v.first[epoch] = ref
	}
	return lat, ttc
}

func (v *verifier) miss(msg string) {
	v.failed++
	if v.firstMiss == "" {
		v.firstMiss = msg
	}
}

// roundStats sums a round's epochs.
type roundStats struct {
	jobs       int
	wall, cpu  time.Duration
	mallocs    uint64
	allocBytes uint64
	retained   int64
	openClose  time.Duration
	generate   time.Duration // making the round's inputs
	yard       time.Duration // the round's yardstick calls: before each epoch and after the last
}

func (r *roundStats) add(o roundStats) {
	r.jobs += o.jobs
	r.wall += o.wall
	r.cpu += o.cpu
	r.mallocs += o.mallocs
	r.allocBytes += o.allocBytes
	r.retained += o.retained
	r.openClose += o.openClose
	r.generate += o.generate
	r.yard += o.yard
}

// speed is the runner's speed during the round (see yardstick).
func (r *roundStats) speed(w *workload) float64 { return speed(r.yard, w.epochs+1) }

// measureRound runs one round: the run's epochs first, first+1, ...
func measureRound(w *workload, drive driveFunc, seed int64, first int, v *verifier, remember bool, tr *tracer, inspect func(*stack)) (rs roundStats, lat, ttc []float64, err error) {
	for k := first; k < first+w.epochs; k++ {
		t0 := time.Now()
		in, err := w.generate(epochSeed(seed, k))
		if err != nil {
			return rs, nil, nil, fmt.Errorf("%s: generating epoch %d: %w", w.name, k, err)
		}
		rs.generate += time.Since(t0)
		rs.yard += yardstick()
		es, err := measureEpoch(w, drive, in, tr, inspect)
		if err != nil {
			return rs, nil, nil, err
		}
		rs.add(roundStats{jobs: es.jobs, wall: es.wall, cpu: es.cpu, mallocs: es.mallocs,
			allocBytes: es.allocBytes, retained: es.retained, openClose: es.openClose})
		l, t := v.check(k, es.outcomes, remember)
		lat, ttc = append(lat, l...), append(ttc, t...)
	}
	rs.yard += yardstick()
	return rs, lat, ttc, nil
}

// setUp is what a client pays before its first measured submit: generating
// an epoch's inputs, building its stack (environment, worker spawn and
// handshake, server listen) and a warm-up epoch through it. The warm-up
// outcomes are verified like any other, and remembered: the epoch runs again,
// measured. It returns the time as the clock read it and the runner's speed
// while it passed.
func setUp(w *workload, seed int64, epoch int, v *verifier) (time.Duration, float64, error) {
	yard := yardstick()
	t0 := time.Now()
	in, err := w.generate(epochSeed(seed, epoch))
	if err != nil {
		return 0, 0, fmt.Errorf("%s: generating epoch %d: %w", w.name, epoch, err)
	}
	st, err := w.open(in.seed)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: opening warm-up stack: %w", w.name, err)
	}
	outs := w.drive(st, in, nil)
	d := time.Since(t0)
	st.close()
	yard += yardstick()
	v.check(epoch, outs, true)
	return d, speed(yard, 2), nil
}

// result is one run's printed outcome.
type result struct {
	metrics map[string]float64
	// raw holds the time-based end-to-end metrics as the clock read them,
	// before the yardstick's correction.
	raw       map[string]float64
	attempted int // every job the run submitted, warm-ups too
	failed    int
	rounds    int
	samples   int
	timed     time.Duration
	speed     float64 // the runner's median speed over the rounds
	firstMiss string
}

// runEndToEnd is the untraced run: every end-to-end metric of one workload.
// Rates are medians over the rounds; latencies are percentiles over the
// pooled samples of all rounds; every time is multiplied by its round's
// runner speed. Round r covers the run's epochs r*w.epochs and up; an even
// round warms up on the first of them.
func runEndToEnd(w *workload, seed int64, rounds int) (*result, error) {
	v := newVerifier(w.pinned)
	var setups, rate, cpu, lat [2][]float64 // [0] as the clock read them, [1] corrected
	var allocs, allocKB, retainedKB, ttcMean, speeds []float64
	var timed time.Duration
	for r := 0; r < rounds; r++ {
		if r%2 == 0 {
			d, sp, err := setUp(w, seed, r*w.epochs, v)
			if err != nil {
				return nil, err
			}
			setups[0] = append(setups[0], d.Seconds())
			setups[1] = append(setups[1], d.Seconds()*sp)
		}
		rs, l, t, err := measureRound(w, w.drive, seed, r*w.epochs, v, false, nil, nil)
		if err != nil {
			return nil, err
		}
		timed += rs.wall
		jobs := float64(rs.jobs)
		sp := rs.speed(w)
		rate[0] = append(rate[0], jobs/rs.wall.Seconds())
		rate[1] = append(rate[1], jobs/(rs.wall.Seconds()*sp))
		cpu[0] = append(cpu[0], ms(rs.cpu)/jobs)
		cpu[1] = append(cpu[1], ms(rs.cpu)*sp/jobs)
		allocs = append(allocs, float64(rs.mallocs)/jobs)
		allocKB = append(allocKB, float64(rs.allocBytes)/1024/jobs)
		retainedKB = append(retainedKB, float64(rs.retained)/1024/jobs)
		ttcMean = append(ttcMean, mean(t))
		speeds = append(speeds, sp)
		for _, x := range l {
			lat[0] = append(lat[0], x)
			lat[1] = append(lat[1], x*sp)
		}
	}
	res := &result{
		attempted: v.attempted,
		failed:    v.failed,
		rounds:    rounds,
		samples:   len(lat[0]),
		timed:     timed,
		speed:     median(speeds),
		firstMiss: v.firstMiss,
	}
	if res.samples == 0 {
		return res, fmt.Errorf("%s: no job passed verification (%s)", w.name, v.firstMiss)
	}
	timeBased := func(i int) map[string]float64 {
		sort.Float64s(lat[i])
		return map[string]float64{
			"setup_s":            median(setups[i]),
			"jobs_per_s":         median(rate[i]),
			"submit_done_p50_ms": percentile(lat[i], 50),
			"submit_done_p99_ms": percentile(lat[i], 99),
			"cpu_ms_per_job":     median(cpu[i]),
		}
	}
	res.raw = timeBased(0)
	res.metrics = timeBased(1)
	res.metrics["allocs_per_job"] = median(allocs)
	res.metrics["alloc_kb_per_job"] = median(allocKB)
	res.metrics["retained_kb_per_job"] = median(retainedKB)
	res.metrics["sim_ttc_mean_s"] = median(ttcMean)
	res.metrics["done_share"] = float64(res.attempted-res.failed) / float64(res.attempted)
	return res, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
