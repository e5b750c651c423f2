// Benchmark harness regenerating every table and figure of the paper's
// evaluation (Table I, Figures 2, 3a–d, 4a–b) plus the ablations of
// experiments.Ablations (README, "aimes-experiments"). Run with:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark executes a reduced experiment matrix per iteration
// (all nine application sizes, fewer repetitions than the CLI default) and
// logs the regenerated table once. cmd/aimes-experiments produces the
// full-size tables.
package aimes_test

import (
	"bytes"
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"aimes"
	"aimes/client"
	"aimes/internal/batch"
	"aimes/internal/experiments"
	"aimes/internal/server"
	"aimes/internal/sim"
)

// benchReps keeps bench iterations affordable while preserving the shapes.
const benchReps = 4

func logOnce(b *testing.B, i int, buf *bytes.Buffer) {
	if i == 0 {
		b.Logf("\n%s", buf.String())
	}
}

// BenchmarkTableI regenerates the experiment/strategy matrix and validates
// one run per experiment row.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := experiments.WriteTableI(&buf); err != nil {
			b.Fatal(err)
		}
		for _, def := range experiments.TableI {
			res := experiments.Run(experiments.RunSpec{Exp: def, NTasks: 8, Rep: i})
			if res.Err != "" {
				b.Fatalf("exp %d failed: %s", def.ID, res.Err)
			}
		}
		logOnce(b, i, &buf)
	}
}

// BenchmarkFigure2 regenerates the TTC comparison across experiments 1–4
// for all nine application sizes.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		specs := experiments.Matrix(experiments.TableI, experiments.Sizes, benchReps)
		agg := experiments.Aggregate(experiments.RunAll(specs, 0))
		var buf bytes.Buffer
		if err := experiments.WriteFigure2(&buf, agg); err != nil {
			b.Fatal(err)
		}
		if violations := experiments.CheckShape(agg); len(violations) > 0 {
			b.Logf("shape violations (expected to be rare at %d reps): %v", benchReps, violations)
		}
		if cell := agg[3][2048]; cell != nil && cell.N > 0 {
			b.ReportMetric(cell.TTC.Mean(), "exp3-ttc-2048-s")
		}
		if cell := agg[1][2048]; cell != nil && cell.N > 0 {
			b.ReportMetric(cell.TTC.Mean(), "exp1-ttc-2048-s")
		}
		logOnce(b, i, &buf)
	}
}

// benchFigure3 regenerates one panel of Figure 3 (TTC, Tw, Tx, Ts).
func benchFigure3(b *testing.B, exp int) {
	def, err := experiments.Experiment(exp)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		specs := experiments.Matrix([]experiments.Definition{def}, experiments.Sizes, benchReps)
		agg := experiments.Aggregate(experiments.RunAll(specs, 0))
		var buf bytes.Buffer
		if err := experiments.WriteFigure3(&buf, agg, exp); err != nil {
			b.Fatal(err)
		}
		if cell := agg[exp][2048]; cell != nil && cell.N > 0 {
			b.ReportMetric(cell.Tw.Mean(), "tw-2048-s")
			b.ReportMetric(cell.Tx.Mean(), "tx-2048-s")
			b.ReportMetric(cell.Ts.Mean(), "ts-2048-s")
		}
		logOnce(b, i, &buf)
	}
}

// BenchmarkFigure3a — experiment 1 (early binding, uniform durations).
func BenchmarkFigure3a(b *testing.B) { benchFigure3(b, 1) }

// BenchmarkFigure3b — experiment 2 (early binding, Gaussian durations).
func BenchmarkFigure3b(b *testing.B) { benchFigure3(b, 2) }

// BenchmarkFigure3c — experiment 3 (late binding, uniform durations).
func BenchmarkFigure3c(b *testing.B) { benchFigure3(b, 3) }

// BenchmarkFigure3d — experiment 4 (late binding, Gaussian durations).
func BenchmarkFigure3d(b *testing.B) { benchFigure3(b, 4) }

// BenchmarkFigure4 regenerates the TTC error-bar comparison between early
// and late binding (experiments 1 and 3).
func BenchmarkFigure4(b *testing.B) {
	defs := []experiments.Definition{}
	for _, id := range []int{1, 3} {
		d, err := experiments.Experiment(id)
		if err != nil {
			b.Fatal(err)
		}
		defs = append(defs, d)
	}
	for i := 0; i < b.N; i++ {
		specs := experiments.Matrix(defs, experiments.Sizes, benchReps+2)
		agg := experiments.Aggregate(experiments.RunAll(specs, 0))
		var buf bytes.Buffer
		if err := experiments.WriteFigure4(&buf, agg); err != nil {
			b.Fatal(err)
		}
		var earlyStd, lateStd float64
		for _, n := range experiments.Sizes {
			if c := agg[1][n]; c != nil {
				earlyStd += c.TTC.Std()
			}
			if c := agg[3][n]; c != nil {
				lateStd += c.TTC.Std()
			}
		}
		b.ReportMetric(earlyStd/float64(len(experiments.Sizes)), "early-ttc-std-s")
		b.ReportMetric(lateStd/float64(len(experiments.Sizes)), "late-ttc-std-s")
		logOnce(b, i, &buf)
	}
}

// BenchmarkAblation regenerates every table of the ablation registry, one
// sub-benchmark per entry (-bench 'Ablation/pilots' for one).
func BenchmarkAblation(b *testing.B) {
	for _, a := range experiments.Ablations {
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := a.Run(&buf, a.Tasks, benchReps, 0); err != nil {
					b.Fatal(err)
				}
				logOnce(b, i, &buf)
			}
		})
	}
}

// --- Microbenchmarks for the substrate hot paths ---

// BenchmarkSimEngine measures raw event throughput of the DES core.
func BenchmarkSimEngine(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewSim()
	count := 0
	for i := 0; i < b.N; i++ {
		eng.Schedule(time.Duration(i)*time.Microsecond, func() { count++ })
	}
	eng.Run()
	if count != b.N {
		b.Fatalf("fired %d, want %d", count, b.N)
	}
}

// BenchmarkEASYBackfill measures the batch policy under a deep queue.
func BenchmarkEASYBackfill(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	queue := make([]*batch.Job, 256)
	for i := range queue {
		queue[i] = &batch.Job{
			ID: "j", Nodes: 1 + rng.Intn(64),
			Runtime:  time.Duration(rng.Intn(7200)) * time.Second,
			Walltime: time.Duration(3600+rng.Intn(7200)) * time.Second,
		}
	}
	running := make([]*batch.Job, 64)
	for i := range running {
		running[i] = &batch.Job{
			ID: "r", Nodes: 1 + rng.Intn(16),
			Walltime: time.Duration(600+rng.Intn(7200)) * time.Second,
		}
	}
	policy := batch.EASY{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.Select(queue, 32, sim.Time(time.Duration(i)), running)
	}
}

// BenchmarkSingleRun2048 measures one full 2048-task late-binding execution
// (the heaviest single point of the evaluation).
func BenchmarkSingleRun2048(b *testing.B) {
	def, err := experiments.Experiment(3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.Run(experiments.RunSpec{Exp: def, NTasks: 2048, Rep: i})
		if res.Err != "" {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkServiceJobSSE is the service path one job at a time — client →
// httptest daemon → 2 local shards, a 12-task job submitted and followed over
// SSE to its terminal snapshot — so `make profile BENCH=BenchmarkServiceJobSSE`
// shows what the benchmark's service-stream workload pays per job.
func BenchmarkServiceJobSSE(b *testing.B) {
	env, err := aimes.NewEnv(aimes.WithSeed(7741), aimes.WithShards(2))
	if err != nil {
		b.Fatal(err)
	}
	auth, err := server.NewAuth(map[string]server.Tenant{"tok": {Name: "bench"}})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{Env: env, Auth: auth})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Shutdown(context.Background())
	}()
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(12, aimes.UniformDuration()), 1)
	if err != nil {
		b.Fatal(err)
	}
	c, ctx := client.New(hs.URL, "tok"), context.Background()
	opt := client.SubmitOptions{Config: aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info, err := c.Submit(ctx, w, opt)
		if err != nil {
			b.Fatal(err)
		}
		es, err := c.Events(ctx, info.ID, 0)
		if err != nil {
			b.Fatal(err)
		}
		for range es.C {
		}
		if fin := es.Final(); fin == nil || fin.Report == nil || fin.Report.UnitsDone != 12 {
			b.Fatalf("job %s: final snapshot %+v (%v)", info.ID, fin, es.Err())
		}
	}
}

// BenchmarkWorkerJob is the wire path one job at a time: a 64-task job on one
// stdio worker shard (this binary re-executed through WorkerMain), every
// record decoded from a Step response on this side — the parent's share of
// the benchmark's fleet-mixed workload.
func BenchmarkWorkerJob(b *testing.B) {
	env, err := aimes.NewEnv(append(processWorkers(1), aimes.WithSeed(7741))...)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(64, aimes.UniformDuration()), 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := aimes.JobConfig{StrategyConfig: aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := env.Submit(context.Background(), w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r, err := j.Wait(context.Background()); err != nil || r.UnitsDone != 64 {
			b.Fatalf("job: %+v, %v", r, err)
		}
	}
}
