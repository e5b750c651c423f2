GO ?= go

.PHONY: build test race wall-clock uncovered orphans vet lint bench profile experiments model-check scenarios scenario-matrix smoke worker-smoke worker-tcp-smoke server-smoke fleet-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The tests whose outcome depends on the wall clock — WithRealTime's pacer,
# a Submit context expiring, monitors against a live waiter — race-enabled,
# ten times over (the script pins -count=1 and fails on a pattern that matches
# nothing), and the daemon's goroutine bound once.
wall-clock:
	for i in 1 2 3 4 5 6 7 8 9 10; do \
		./scripts/go_test_run.sh 'RealTime|SubmitContextCancelsJob|MonitorUnderConcurrentWait' . || exit 1; \
	done
	./scripts/go_test_run.sh TestDaemonFootprint ./internal/server

# Product functions no test reaches, from one whole-module coverage run
# (~20 s); fails when one is an exported name of package aimes or client or an
# aimes-server route (see scripts/uncovered.sh).
uncovered:
	./scripts/uncovered.sh

# internal/ functions that only library tests reach — covered by the whole
# module's tests, at 0 % under the tests of the packages that consume the
# libraries (root, client, cmd, server, scenario, experiments). Informational:
# the list a shrink PR starts from (two coverage runs, ~25 s).
orphans:
	./scripts/uncovered.sh orphans

vet:
	$(GO) vet ./...

# Formatting + vet. CI layers staticcheck on top of this.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# The paper-figure, ablation and leaf micro-benchmarks, once each. The
# repository's benchmark — end-to-end metrics and the per-layer ledger — is
# the bench/ program (see bench/README.md): go run ./bench -workload <name>.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Where the time and the allocations go: CPU and allocation profiles of one
# root benchmark, BENCH=<regexp>, as top-30 text tables in profile/
# (git-ignored). The default is the paper's matrix (Table I experiments 1-4 x
# sizes 8..2048; BenchmarkFigure2 runs it, BenchmarkTableI only its 8-task
# column): the path the benchmark's paper-matrix workload measures — the
# harness runs every cell as NewEnv, Submit, Wait, so the tables show
# shardEnv.pump, StepN and trace.Log.Append — plus what the harness adds per
# run: a fresh environment and the workload's generation.
# BENCH=BenchmarkServiceJobSSE is the service-stream path (client, daemon, SSE)
# and BENCH=BenchmarkWorkerJob the parent side of fleet-mixed's wire; those
# want BENCHTIME=500x or so. A perf change names its layer from these tables,
# before and after. bench/ itself has no profile flag.
BENCH ?= BenchmarkFigure2$$
BENCHTIME ?= 3x
profile:
	mkdir -p profile
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime $(BENCHTIME) \
		-o profile/aimes.test -cpuprofile profile/cpu.prof -memprofile profile/mem.prof .
	$(GO) tool pprof -top -nodecount 30 profile/aimes.test profile/cpu.prof > profile/cpu.txt
	$(GO) tool pprof -top -nodecount 30 -sample_index=alloc_objects profile/aimes.test profile/mem.prof > profile/alloc_objects.txt
	$(GO) tool pprof -top -nodecount 30 -sample_index=alloc_space profile/aimes.test profile/mem.prof > profile/alloc_space.txt
	@head -20 profile/cpu.txt

# The paper's own acceptance test on the full matrix: every Table I cell at 4
# repetitions (~1 s); exits non-zero on a failed run or a violated shape
# criterion (late binding wins, Tw dominates, Ts minor, early variance high).
experiments:
	$(GO) run ./cmd/aimes-experiments -reps 4 >/dev/null

# Cost-model fidelity gate: run the deterministic validation battery
# (internal/modelcheck) and compare its prediction error against the
# committed MODEL_baseline.json — refresh after a deliberate model change
# with `go run ./cmd/model-check -update`.
model-check:
	$(GO) run ./cmd/model-check

# Validate and run every example scenario.
scenarios: build
	@for f in examples/scenarios/*.json; do \
		$(GO) run ./cmd/aimes-scenario validate $$f || exit 1; \
	done
	$(GO) run ./cmd/aimes-scenario run examples/scenarios/outage.json

# CI gate over the scenario corpus: every example scenario runs with
# `run -assert` on both the local and the worker backend, and the
# deliberately failing fixture must fail naming its assertion index
# (see scripts/scenario_matrix.sh).
scenario-matrix:
	./scripts/scenario_matrix.sh

# Smoke-run every example program under a timeout.
smoke:
	@for d in examples/*/; do \
		case $$d in examples/scenarios/) continue;; esac; \
		echo "--- $$d"; \
		timeout 120 $(GO) run ./$$d || exit 1; \
	done

# Worker-backend smoke: build the standalone shard worker, run the
# self-hosted workers example under a timeout, and run the race-enabled
# backend parity + crash-containment tests (each spawns real worker
# processes via the test binary's WorkerMain self-exec).
worker-smoke:
	$(GO) build -o /tmp/aimes-worker ./cmd/aimes-worker
	timeout 120 $(GO) run ./examples/workers
	./scripts/go_test_run.sh 'TestBackendParity|TestBackendParityConservativePolicy|TestWorker|TestInitFrameCarriesEveryConfigField|TestConnectRejectsWorkerWithoutBinary' . ./internal/backend/

# TCP-transport smoke: host shards with a real `aimes-worker serve` process
# on a loopback port and run the parity matrix and crash containment against
# it (see scripts/worker_tcp_smoke.sh).
worker-tcp-smoke:
	./scripts/worker_tcp_smoke.sh

# Service-daemon smoke: a real aimes-server on an ephemeral port, on both
# the local and TCP-worker backends — two quota-limited tenants, a 429
# quota rejection, SSE event streaming, reconnect-and-wait by job ID,
# /metrics counters, and a graceful SIGTERM drain
# (see scripts/server_smoke.sh).
server-smoke:
	timeout 300 ./scripts/server_smoke.sh

# Worker-fleet smoke: two real `aimes-worker serve` hosts behind one
# aimes-server, kill -9 of one host mid-run — queued jobs replay on a
# respawned worker placed on the survivor, enacted jobs fail, the restart
# is visible in /metrics (see scripts/fleet_smoke.sh).
fleet-smoke:
	timeout 300 ./scripts/fleet_smoke.sh

ci: lint race wall-clock uncovered orphans experiments model-check scenarios scenario-matrix worker-smoke worker-tcp-smoke server-smoke fleet-smoke
