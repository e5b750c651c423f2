package server

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"aimes"
	"aimes/client"
	"aimes/internal/skeleton"
)

// unset lists the zero-valued leaf fields reachable from v, by path. Nil
// pointers and empty slices count as unset; a struct is set when all of its
// fields are.
func unset(v reflect.Value, path string) []string {
	switch v.Kind() {
	case reflect.Struct:
		var out []string
		for i := 0; i < v.NumField(); i++ {
			out = append(out, unset(v.Field(i), path+"."+v.Type().Field(i).Name)...)
		}
		return out
	case reflect.Pointer:
		if !v.IsNil() {
			return unset(v.Elem(), path)
		}
	case reflect.Slice:
		if v.Len() > 0 {
			return nil
		}
	default:
		if !v.IsZero() {
			return nil
		}
	}
	return []string{path}
}

// TestJobConfigAppliesEveryRequestField is the server half of the
// in-process → wire parity contract (client's
// TestSubmitCarriesEveryJobConfigField is the other): from a request with
// every knob set, jobConfig — the one place registry.submit builds the
// submission from — must leave no aimes.JobConfig field at its zero value,
// embedded StrategyConfig included. A field added to JobConfig fails here
// until the request carries it and jobConfig applies it.
func TestJobConfigAppliesEveryRequestField(t *testing.T) {
	var req client.SubmitRequest
	if err := json.Unmarshal([]byte(`{
	  "workload": {},
	  "config": {
	    "Binding": 1, "Scheduler": 2, "Pilots": 3, "AutoPilots": true,
	    "Selection": 2, "FixedResources": ["stampede", "comet"]
	  },
	  "strategy": {
	    "Binding": 1, "Scheduler": 2, "Pilots": 2, "Resources": ["stampede", "comet"],
	    "PilotCores": 16, "PilotWalltime": 3600000000000,
	    "EstTx": 1000000000, "EstTs": 2000000000, "EstTrp": 3000000000
	  },
	  "adaptive": {"Patience": 60000000000, "MaxExtraPilots": 2, "ReplaceLostPilots": true, "MaxReplacements": 1},
	  "placement": "pinned", "shard": 1, "migrate": "allow"
	}`), &req); err != nil {
		t.Fatal(err)
	}
	cfg, err := jobConfig(&req)
	if err != nil {
		t.Fatal(err)
	}
	if missing := unset(reflect.ValueOf(cfg), "JobConfig"); len(missing) > 0 {
		t.Errorf("jobConfig left these fields unset from a request that sets every knob: %v", missing)
	}
	if cfg.Placement != aimes.PlacePinned || cfg.Shard != 1 || cfg.Migrate != aimes.MigrateAllow {
		t.Errorf("placement knobs: %+v", cfg)
	}
	if !reflect.DeepEqual(cfg.StrategyConfig, req.Config) || cfg.Strategy != req.Strategy || cfg.Adaptive != req.Adaptive {
		t.Errorf("strategy knobs not passed through: %+v", cfg)
	}

	for name, bad := range map[string]client.SubmitRequest{
		"placement": {Placement: "nearest"},
		"migrate":   {Migrate: "sometimes"},
	} {
		if _, err := jobConfig(&bad); err == nil {
			t.Errorf("unknown %s policy accepted", name)
		}
	}
}

// TestRegistryJobsGauge: aimes_registry_jobs counts the records the registry
// holds, live and finished, and stops at the retention bound.
func TestRegistryJobsGauge(t *testing.T) {
	const retain = 3
	env, err := aimes.NewEnv(aimes.WithSeed(5), aimes.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	_, c, _ := daemon(t, env, retain)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 1; i <= 2*retain; i++ {
		info, err := c.SubmitRaw(ctx, bagRequest(t, 4, 60, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
		metrics, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("\naimes_registry_jobs %d\n", min(i, retain))
		if !strings.Contains(metrics, want) || !strings.Contains(metrics, "# TYPE aimes_registry_jobs gauge\n") {
			t.Fatalf("after %d jobs /metrics lacks %q\n%s", i, want[1:], metrics)
		}
	}
}

// TestFinishedJobReleasesItsWorkload is the daemon's half of the root
// package's test of that name: a job the registry retains after it ended
// holds its outcome — reattach still reads the report — and not the
// workload the submit handler parsed.
func TestFinishedJobReleasesItsWorkload(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(5), aimes.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, c, _ := daemon(t, env, 8)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// submit is the submit handler past its body: parse, then register.
	submit := func() (string, weak.Pointer[aimes.Workload]) {
		req := bagRequest(t, 4, 60, 1)
		w, err := skeleton.ParseWorkload(req.Workload)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := srv.reg.submit(Tenant{Name: "soak"}, w, req)
		if err != nil {
			t.Fatal(err)
		}
		return rec.id, weak.Make(w)
	}
	id, w := submit()
	if _, err := c.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	if w.Value() != nil {
		t.Error("a retained finished job still holds its workload")
	}
	info, err := c.Job(ctx, id)
	if err != nil || info.State != "done" || info.Report == nil || info.Report.UnitsDone != 4 {
		t.Errorf("reattach to the retained job: %+v (%v)", info, err)
	}
}
