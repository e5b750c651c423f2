package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"aimes"
	"aimes/client"
	"aimes/internal/batch"
)

// submitBodies returns a submission as client.Submit writes it (a compact
// document, read in one pass) and indented (decoded by encoding/json).
func submitBodies(t *testing.T) (compact, indented []byte) {
	t.Helper()
	req := bagRequest(t, 4, 60, 1)
	compact, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	indented, err = json.MarshalIndent(req, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return slices.Clip(compact), slices.Clip(indented)
}

// post serves one submission through h.
func post(h http.Handler, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer tok")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// TestSubmitBodyLimits: a submission is one JSON value and nothing after it
// but whitespace, on the one-pass path and on encoding/json's; and a body
// over the limit is refused as too large, naming the limit, before any of it
// is read.
func TestSubmitBodyLimits(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(3), aimes.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	auth, err := NewAuth(map[string]Tenant{"tok": {Name: "alice"}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Env: env, Auth: auth})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	compact, indented := submitBodies(t)
	for _, tc := range []struct {
		name string
		body []byte
		code int
	}{
		{"compact", compact, http.StatusCreated},
		{"compact, then whitespace", append(compact, " \n"...), http.StatusCreated},
		{"compact, then garbage", append(compact, "garbage"...), http.StatusBadRequest},
		{"compact, then another request", append(compact, compact...), http.StatusBadRequest},
		{"indented", indented, http.StatusCreated},
		{"indented, then garbage", append(indented, "garbage"...), http.StatusBadRequest},
		{"empty", nil, http.StatusBadRequest},
	} {
		rr := post(h, tc.body)
		if rr.Code != tc.code {
			t.Errorf("%s: status %d (%s), want %d", tc.name, rr.Code, strings.TrimSpace(rr.Body.String()), tc.code)
		}
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"workload":`))
	req.Header.Set("Authorization", "Bearer tok")
	req.ContentLength = maxSubmitBody + 1
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var eb client.ErrorBody
	if err := json.Unmarshal(rr.Body.Bytes(), &eb); rr.Code != http.StatusRequestEntityTooLarge || err != nil || !strings.Contains(eb.Error, "64 MiB") {
		t.Errorf("a body over the limit: status %d, body %q; want 413 naming the limit", rr.Code, rr.Body)
	}
}

// TestSubmitRejectsBadRequests: a submission the daemon can read but not
// admit — an unknown placement or migrate policy, or a strategy config the
// environment's Validate refuses — is a 400 whose ErrorBody names the cause.
func TestSubmitRejectsBadRequests(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(3), aimes.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	auth, err := NewAuth(map[string]Tenant{"tok": {Name: "alice"}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Env: env, Auth: auth})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	for _, tc := range []struct {
		name  string
		edit  func(*client.SubmitRequest)
		cause string
	}{
		{"placement", func(r *client.SubmitRequest) { r.Placement = "nearest" }, `"nearest"`},
		{"migrate", func(r *client.SubmitRequest) { r.Migrate = "sometimes" }, `"sometimes"`},
		{"negative pilots", func(r *client.SubmitRequest) { r.Config.Pilots = -2 }, "pilot count -2 is negative"},
	} {
		req := bagRequest(t, 4, 60, 1)
		tc.edit(req)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rr := post(h, body)
		var eb client.ErrorBody
		if err := json.Unmarshal(rr.Body.Bytes(), &eb); rr.Code != http.StatusBadRequest || err != nil || !strings.Contains(eb.Error, tc.cause) {
			t.Errorf("%s: status %d, body %q; want 400 naming %s", tc.name, rr.Code, rr.Body, tc.cause)
		}
	}
}

// TestSubmitHandlerAllocations pins one submission's cost on the daemon, from
// the request's body to the reply's: reading and parsing the body, admitting
// the job (its record, its pump, the shard's enactment, about 55 objects) and
// encoding the snapshot, plus the recorder's own few. It measures 79 on a
// four-task bag (87 under the race detector), where decoding the body and
// encoding the reply through encoding/json made it 94. The jobs wait an hour
// for their pilots on a wall-clock environment, so nothing runs in the
// background while it counts.
func TestSubmitHandlerAllocations(t *testing.T) {
	site := func(name string) aimes.SiteConfig {
		return aimes.SiteConfig{
			Name: name, Nodes: 8, CoresPerNode: 4, Architecture: "beowulf",
			WaitModel:     batch.WaitModel{MedianWait: time.Hour, Sigma: 0.1, MinWait: time.Hour, MaxWait: 2 * time.Hour},
			SubmitLatency: time.Hour, BandwidthMBps: 1000, NetLatency: time.Millisecond, StorageGB: 10,
		}
	}
	env, err := aimes.NewEnv(aimes.WithRealTime(), aimes.WithSeed(5), aimes.WithSites(site("left"), site("right")))
	if err != nil {
		t.Fatal(err)
	}
	auth, err := NewAuth(map[string]Tenant{"tok": {Name: "alice"}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Env: env, Auth: auth})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	t.Cleanup(func() { // first: the drain waits for every job
		srv.reg.mu.Lock()
		defer srv.reg.mu.Unlock()
		for _, rec := range srv.reg.order {
			rec.job.Cancel("measured")
		}
	})
	h := srv.Handler()
	body, _ := submitBodies(t)
	rd := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", rd)
	req.Header.Set("Authorization", "Bearer tok")
	req.ContentLength = int64(len(body))
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(body)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusCreated {
			t.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
	})
	t.Logf("%.1f allocations per submission of a %d-byte body", allocs, len(body))
	if allocs > 88 {
		t.Errorf("%.1f allocations per submission, want at most 88", allocs)
	}
}
