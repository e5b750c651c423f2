package client

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"aimes"
)

// TestPolicyStringsRoundTrip requires every placement and migrate policy the
// library accepts to survive the HTTP wire form, so no in-process knob is
// unreachable over HTTP.
func TestPolicyStringsRoundTrip(t *testing.T) {
	for _, p := range []aimes.Placement{
		aimes.PlaceRoundRobin, aimes.PlaceLeastLoaded, aimes.PlacePinned, aimes.PlacePredictive,
	} {
		got, err := ParsePlacement(PlacementString(p))
		if err != nil || got != p {
			t.Errorf("placement %d: ParsePlacement(%q) = %d, %v", int(p), PlacementString(p), int(got), err)
		}
	}
	for _, m := range []aimes.MigratePolicy{aimes.MigrateAuto, aimes.MigrateAllow, aimes.MigrateNever} {
		got, err := ParseMigrate(MigrateString(m))
		if err != nil || got != m {
			t.Errorf("migrate %d: ParseMigrate(%q) = %d, %v", int(m), MigrateString(m), int(got), err)
		}
	}
	// The empty string is each policy's zero value.
	if p, err := ParsePlacement(""); err != nil || p != aimes.PlaceRoundRobin {
		t.Errorf("ParsePlacement(\"\") = %d, %v", int(p), err)
	}
	if m, err := ParseMigrate(""); err != nil || m != aimes.MigrateAuto {
		t.Errorf("ParseMigrate(\"\") = %d, %v", int(m), err)
	}
	if _, err := ParsePlacement("placement(9)"); err == nil {
		t.Error("ParsePlacement accepted an unknown policy")
	}
	if _, err := ParseMigrate("migrate(9)"); err == nil {
		t.Error("ParseMigrate accepted an unknown policy")
	}
}

// jobConfigWire names, for every field of aimes.JobConfig, the field of
// SubmitOptions and of SubmitRequest that carries it over HTTP. A JobConfig
// field that is neither here nor in jobConfigNotCarried fails
// TestSubmitCarriesEveryJobConfigField until it is wired (here, in
// SubmitOptions.request and in the server's jobConfig) or listed with its
// reason.
var jobConfigWire = map[string]string{
	"StrategyConfig": "Config",
	"Strategy":       "Strategy",
	"Adaptive":       "Adaptive",
	"Placement":      "Placement",
	"Shard":          "Shard",
	"Migrate":        "Migrate",
}

// jobConfigNotCarried lists JobConfig fields that deliberately do not cross
// HTTP, each with the reason. Empty today.
var jobConfigNotCarried = map[string]string{}

// fill sets every field reachable from v to a non-zero value, distinct where
// the type allows, so a dropped or crossed-over field shows up in a
// comparison. The two policy enums get valid non-zero members (their wire
// form is a checked string).
func fill(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Interface().(type) {
	case aimes.Placement:
		v.SetInt(int64(aimes.PlacePredictive))
		return
	case aimes.MigratePolicy:
		v.SetInt(int64(aimes.MigrateNever))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), n)
		}
	default:
		t.Fatalf("fill: no rule for %s (kind %s); teach the test about it", v.Type(), v.Kind())
	}
}

// TestSubmitCarriesEveryJobConfigField is the client half of the in-process
// → wire parity contract: a JobConfig with every field set (embedded
// StrategyConfig included, found by reflection) goes through SubmitOptions,
// the request the client builds and a JSON round trip, and every field must
// arrive intact. internal/server's TestJobConfigAppliesEveryRequestField is
// the other half.
func TestSubmitCarriesEveryJobConfigField(t *testing.T) {
	var want aimes.JobConfig
	n := 0
	fill(t, reflect.ValueOf(&want).Elem(), &n)

	var opts SubmitOptions
	wv, ov := reflect.ValueOf(want), reflect.ValueOf(&opts).Elem()
	for i := 0; i < wv.NumField(); i++ {
		name := wv.Type().Field(i).Name
		if reason, ok := jobConfigNotCarried[name]; ok {
			t.Logf("JobConfig.%s is not carried: %s", name, reason)
			continue
		}
		carrier, ok := jobConfigWire[name]
		if !ok {
			t.Errorf("JobConfig.%s is neither carried over HTTP nor on the not-carried list", name)
			continue
		}
		of := ov.FieldByName(carrier)
		if !of.IsValid() || of.Type() != wv.Field(i).Type() {
			t.Errorf("JobConfig.%s: SubmitOptions has no field %s of type %s", name, carrier, wv.Field(i).Type())
			continue
		}
		of.Set(wv.Field(i))
	}

	body, err := json.Marshal(opts.request([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	var got SubmitRequest
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	gv := reflect.ValueOf(got)
	for name, carrier := range jobConfigWire {
		wf := wv.FieldByName(name)
		if !wf.IsValid() {
			t.Errorf("jobConfigWire names JobConfig.%s, which does not exist", name)
			continue
		}
		gf := gv.FieldByName(carrier)
		if !gf.IsValid() {
			t.Errorf("JobConfig.%s: SubmitRequest has no field %s", name, carrier)
			continue
		}
		arrived := gf.Interface()
		switch name { // the policies travel as checked strings
		case "Placement":
			arrived, err = ParsePlacement(got.Placement)
		case "Migrate":
			arrived, err = ParseMigrate(got.Migrate)
		}
		if err != nil {
			t.Errorf("JobConfig.%s: %v", name, err)
		}
		if !reflect.DeepEqual(arrived, wf.Interface()) {
			t.Errorf("JobConfig.%s arrived as SubmitRequest.%s = %+v, want %+v", name, carrier, arrived, wf.Interface())
		}
	}
}
