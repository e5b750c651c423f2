package backend

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// TestPingOpcode drives the raw serve loop: ping must be answered after
// init without ever emitting events or touching job state.
func TestPingOpcode(t *testing.T) {
	p := servePeer(t)
	if resp := p.init(&initRequest{Op: initOp, Init: &Config{Shard: 0, Seed: 42}, Codec: binaryWire}); resp.Err != "" {
		t.Fatalf("init: %s", resp.Err)
	}
	if resp, calls := p.call(&request{Op: opPing}); resp.Err != "" || len(calls) != 0 {
		t.Fatalf("post-init ping: %q, %d events", resp.Err, len(calls))
	}
	p.close()
}

// TestWorkerPingAndDead checks the client half of the probe: Ping succeeds
// against a live session, and after a kill both Ping and Dead report the
// death.
func TestWorkerPingAndDead(t *testing.T) {
	w, err := Connect(pipeWorker(t), WorkerOptions{}, Config{Shard: 0, Seed: 1}, &collectSink{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.Dead() {
		t.Fatal("fresh worker reports dead")
	}
	if err := w.Ping(); err != nil {
		t.Fatalf("ping on a live worker: %v", err)
	}
	// The pipe transport has no process watcher: death surfaces in-band,
	// so the probe itself is what flips the session to dead.
	w.Kill()
	if err := w.Ping(); err == nil {
		t.Fatal("ping on a killed worker succeeded")
	}
	if !w.Dead() {
		t.Fatal("failed ping did not mark the session dead")
	}
}

// poolHost starts an in-process TCP worker host and returns its endpoint.
func poolHost(t *testing.T, name, secret string) (Endpoint, net.Listener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeListener(ln, ServeConfig{Secret: secret})
	t.Cleanup(func() { ln.Close() })
	return Endpoint{Name: name, Addr: ln.Addr().String(), Secret: secret}, ln
}

// TestPoolPlacementAndLifecycle exercises the fleet manager directly:
// round-robin home placement across two hosts, respawn within budget on the
// home endpoint, failover to the surviving host when the home host is gone,
// cordon accounting, and budget exhaustion.
func TestPoolPlacementAndLifecycle(t *testing.T) {
	const secret = "pool-test-secret"
	ep0, ln0 := poolHost(t, "h0", secret)
	ep1, _ := poolHost(t, "h1", secret)
	p, err := NewPool(PoolConfig{Endpoints: []Endpoint{ep0, ep1}, MaxRestarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	dial := func(k int) *Worker {
		t.Helper()
		w, err := p.Dial(k, Config{Shard: k, Seed: int64(100 + k)}, &collectSink{}, nil)
		if err != nil {
			t.Fatalf("dial shard %d: %v", k, err)
		}
		return w
	}
	for k := 0; k < 4; k++ {
		dial(k)
	}
	stats := p.Stats()
	if len(stats.Endpoints) != 2 {
		t.Fatalf("%d endpoints in stats, want 2", len(stats.Endpoints))
	}
	for _, ep := range stats.Endpoints {
		if ep.Shards != 2 {
			t.Fatalf("endpoint %s hosts %d shards, want 2 (round-robin broken)", ep.Name, ep.Shards)
		}
	}

	// Respawn on the live home endpoint: shard 1 homes on h1.
	if !p.CanRespawn(1) {
		t.Fatal("CanRespawn false with a full budget")
	}
	if err := p.Kill(1); err != nil {
		t.Fatal(err)
	}
	w, err := p.Respawn(1, Config{Shard: 1, Seed: 101}, &collectSink{}, nil)
	if err != nil {
		t.Fatalf("respawn on live home endpoint: %v", err)
	}
	if err := w.Ping(); err != nil {
		t.Fatalf("respawned worker not live: %v", err)
	}
	if got := p.Stats().Restarts; got != 1 {
		t.Fatalf("pool restarts %d after one respawn, want 1", got)
	}

	// Failover: take host 0 down entirely, then respawn its shard 0. The
	// home dial must fail, mark h0 unhealthy, and land the shard on h1.
	ln0.Close()
	if err := p.Kill(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Respawn(0, Config{Shard: 0, Seed: 100}, &collectSink{}, nil); err != nil {
		t.Fatalf("failover respawn: %v", err)
	}
	var h0, h1 EndpointStatus
	for _, ep := range p.Stats().Endpoints {
		switch ep.Name {
		case "h0":
			h0 = ep
		case "h1":
			h1 = ep
		}
	}
	if !h0.Unhealthy {
		t.Fatal("dead host h0 not marked unhealthy after a failed dial")
	}
	if h1.Shards != 3 {
		t.Fatalf("h1 hosts %d shards after failover, want 3", h1.Shards)
	}

	// Cordon is sticky placement state and unknown names are rejected.
	if err := p.Cordon("nope"); err == nil {
		t.Fatal("cordon of an unknown endpoint succeeded")
	}
	if err := p.Cordon("h0"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ep := range p.Stats().Endpoints {
		if ep.Name == "h0" && ep.Cordoned {
			found = true
		}
	}
	if !found {
		t.Fatal("cordoned endpoint not reported cordoned")
	}

	// Budget exhaustion: shard 0 has one respawn left, then refusal.
	if err := p.Kill(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Respawn(0, Config{Shard: 0, Seed: 100}, &collectSink{}, nil); err != nil {
		t.Fatalf("second respawn within budget: %v", err)
	}
	if p.CanRespawn(0) {
		t.Fatal("CanRespawn true with the budget spent")
	}
	if err := p.Kill(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Respawn(0, Config{Shard: 0, Seed: 100}, &collectSink{}, nil); !errors.Is(err, ErrRestartsExhausted) {
		t.Fatalf("exhausted respawn error %v, want ErrRestartsExhausted", err)
	}
}

// TestPoolHealthProbe runs a pool with a fast probe period against a host
// that goes away: the prober must record the failure against the endpoint.
func TestPoolHealthProbe(t *testing.T) {
	const secret = "probe-test-secret"
	ep, ln := poolHost(t, "probed", secret)
	p, err := NewPool(PoolConfig{Endpoints: []Endpoint{ep}, MaxRestarts: 1, HealthInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	w, err := p.Dial(0, Config{Shard: 0, Seed: 1}, &collectSink{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Probes against the live worker must not kill it.
	time.Sleep(50 * time.Millisecond)
	if err := w.Ping(); err != nil {
		t.Fatalf("worker unhealthy under periodic probing: %v", err)
	}
	// Sever the session out from under the prober; the endpoint must be
	// charged with a probe failure.
	ln.Close()
	w.Kill()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := p.Stats().Endpoints[0]
		if st.ProbeFailures >= 1 && st.Unhealthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never charged the dead endpoint: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPoolValidation covers the config refusals.
func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(PoolConfig{}); err == nil || !strings.Contains(err.Error(), "endpoint") {
		t.Fatalf("empty-endpoint pool: %v", err)
	}
}
