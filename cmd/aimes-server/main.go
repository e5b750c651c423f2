// aimes-server is the long-lived multi-tenant AIMES service daemon: it owns
// one sharded execution environment (local, self-hosted worker processes,
// or a remote TCP worker host) and exposes the async Job API over HTTP —
// submit, wait, cancel, list, live SSE event streams — plus Prometheus
// metrics on /metrics. Tenants authenticate with static bearer tokens and
// are admission-limited by per-tenant quotas.
//
//	aimes-server -listen :9470 -token-file tokens.txt
//	aimes-server -listen :9470 -token-file tokens.txt -workers 4
//	aimes-server -listen :9470 -token-file tokens.txt \
//	    -worker-endpoints host:9464 -worker-secret-file secret.txt
//	aimes-server -listen :9470 -token-file tokens.txt -pprof 127.0.0.1:6060
//
// The token file holds one "tenant token [max_inflight [max_queued]]" line
// per tenant ('#' comments allowed); omitted columns fall back to the
// -max-inflight/-max-queued defaults (0 = unlimited).
//
// On startup the daemon prints "listening on http://ADDR" to stdout
// (resolved after binding, so -listen :0 works for scripts); with -pprof, a
// "pprof on http://ADDR/debug/pprof/" line follows. SIGINT/SIGTERM
// trigger a graceful shutdown: new submissions are refused with 503 while
// every in-flight job drains to its final state (bounded by
// -drain-timeout), then the environment and its workers are closed.
//
// With -workers N the daemon self-hosts its shard workers by re-executing
// itself (aimes.WorkerMain), so no separate aimes-worker binary is needed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aimes"
	"aimes/internal/profiling"
	"aimes/internal/server"
)

func main() {
	// In a worker child this serves the shard protocol and never returns;
	// in the parent it arms self-hosted -workers and falls through.
	aimes.WorkerMain()

	var (
		listen    = flag.String("listen", "127.0.0.1:9470", "HTTP listen address (use :0 for an ephemeral port)")
		tokenFile = flag.String("token-file", "", "static tenant token file: \"tenant token [max_inflight [max_queued]]\" per line (required)")

		seed   = flag.Int64("seed", 42, "environment seed")
		shards = flag.Int("shards", 0, "simulation shards (0 = GOMAXPROCS)")
		steal  = flag.Bool("steal", false, "enable cross-shard work stealing")

		workers          = flag.Int("workers", 0, "run N shards as self-hosted worker processes (0 = in-process local backend)")
		workerEndpoints  = flag.String("worker-endpoints", "", "comma-separated TCP worker hosts (aimes-worker serve) to run shards on instead of in process; shards spread across them round-robin")
		workerSecret     = flag.String("worker-secret", "", "shared handshake secret for TCP worker hosts (prefer -worker-secret-file)")
		workerSecretFile = flag.String("worker-secret-file", "", "file holding the TCP worker handshake secret")
		wireCodec        = flag.String("wire-codec", "", "worker wire codec: json, or binary (the default)")
		maxRestarts      = flag.Int("max-restarts", 0, "per-shard worker respawn budget: a dead worker is redialed with the same shard seed and its queued jobs replayed (0 = a dead worker terminally fails its shard's jobs)")
		healthInterval   = flag.Duration("health-interval", 0, "worker liveness-probe period, e.g. 2s (0 = probe only on use)")

		maxInflight = flag.Int("max-inflight", 0, "default per-tenant max in-flight jobs (0 = unlimited)")
		maxQueued   = flag.Int("max-queued", 0, "default per-tenant max queued descriptors (0 = unlimited)")

		retain       = flag.Int("retain", 4096, "finished jobs retained for reattach before eviction")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "graceful-shutdown bound for draining in-flight jobs")
		quiet        = flag.Bool("quiet", false, "suppress per-job logging")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address, a listener of its own (off when empty)")
	)
	flag.Parse()

	logf := log.New(os.Stderr, "aimes-server: ", log.LstdFlags).Printf
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "aimes-server: "+format+"\n", args...)
		os.Exit(2)
	}

	if *tokenFile == "" {
		fail("-token-file is required (one \"tenant token [max_inflight [max_queued]]\" line per tenant)")
	}
	auth, err := server.LoadTokenFile(*tokenFile, server.Quota{MaxInFlight: *maxInflight, MaxQueued: *maxQueued})
	if err != nil {
		fail("%v", err)
	}

	opts := []aimes.Option{aimes.WithSeed(*seed)}
	if *shards > 0 {
		opts = append(opts, aimes.WithShards(*shards))
	}
	if *steal {
		opts = append(opts, aimes.WithWorkStealing())
	}
	if *wireCodec != "" {
		opts = append(opts, aimes.WithWireCodec(*wireCodec))
	}
	secret := *workerSecret
	if secret == "" && *workerSecretFile != "" {
		b, err := os.ReadFile(*workerSecretFile)
		if err != nil {
			fail("reading -worker-secret-file: %v", err)
		}
		secret = strings.TrimSpace(string(b))
	} // empty falls back to $AIMES_WORKER_SECRET{,_FILE} inside NewEnv
	pool := aimes.WorkerPool{
		Secret:         secret,
		MaxRestarts:    *maxRestarts,
		HealthInterval: *healthInterval,
	}
	for _, a := range strings.Split(*workerEndpoints, ",") {
		if a = strings.TrimSpace(a); a != "" {
			pool.Endpoints = append(pool.Endpoints, aimes.WorkerEndpoint{Addr: a})
		}
	}
	switch {
	case len(pool.Endpoints) > 0:
		opts = append(opts, aimes.WithWorkerPool(pool))
	case *workerEndpoints != "":
		fail("-worker-endpoints %q names no endpoints", *workerEndpoints)
	case *workers > 0:
		// Self-hosted process workers: an empty endpoint list means one
		// process-mode endpoint spawning this binary.
		opts = append(opts, aimes.WithShards(*workers), aimes.WithWorkerPool(pool))
	}

	env, err := aimes.NewEnv(opts...)
	if err != nil {
		fail("%v", err)
	}

	cfg := server.Config{Env: env, Auth: auth, Retain: *retain, Logf: logf}
	if *quiet {
		cfg.Logf = nil
	}
	srv, err := server.New(cfg)
	if err != nil {
		env.Close()
		fail("%v", err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		env.Close()
		fail("%v", err)
	}
	// Stdout, after binding: scripts parse these lines to find a :0 port.
	fmt.Printf("aimes-server: listening on http://%s\n", ln.Addr())
	if *pprofAddr != "" {
		prof, err := profiling.Listen(*pprofAddr)
		if err != nil {
			env.Close()
			fail("-pprof: %v", err)
		}
		defer prof.Close()
		fmt.Printf("aimes-server: pprof on http://%s/debug/pprof/\n", prof.Addr())
	}
	tenants := auth.Tenants()
	names := make([]string, len(tenants))
	for i, tn := range tenants {
		names[i] = tn.Name
	}
	logf("%d shards on the %q backend, %d tenants (%s)", env.Shards(), env.Backend(), len(tenants), strings.Join(names, ", "))

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()
	select {
	case err := <-serveErr:
		env.Close()
		fail("serve: %v", err)
	case <-ctx.Done():
	}
	stopSignals() // a second signal kills immediately

	logf("signal received; draining in-flight jobs (bound %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logf("drain incomplete: %v", err)
		hs.Close()
		os.Exit(1)
	}
	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	hs.Shutdown(shutdownCtx)
	logf("drain complete, exiting")
}
