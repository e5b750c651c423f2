package server

import (
	"encoding/json"
	"reflect"
	"testing"

	"aimes"
	"aimes/client"
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
	    "Binding": 1, "Scheduler": 2, "Pilots": 3, "AutoPilots": true, "MaxPilots": 4,
	    "Selection": 2, "FixedResources": ["stampede", "comet"], "WalltimeSlack": 1.5,
	    "DispatchOverhead": 250000000
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
