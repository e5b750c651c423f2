package client

import (
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
