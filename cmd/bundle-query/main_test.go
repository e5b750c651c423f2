package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCharacterizeAll: with no flags, every resource of the default testbed
// gets a row with its compute, network and storage characterization.
func TestCharacterizeAll(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "", false, 128, 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 6 || !strings.HasPrefix(lines[0], "resource") {
		t.Fatalf("want a header and five rows:\n%s", out.String())
	}
	row := strings.Fields(lines[1])
	if want := []string{"stampede", "beowulf", "6400", "102400", "12", "MB/s", "14000", "GB"}; len(row) < len(want) || strings.Join(row[:len(want)], " ") != strings.Join(want, " ") {
		t.Fatalf("stampede row %q, want it to start %q", lines[1], want)
	}
}

// TestMatch: the discovery query combines comparisons with && and !, and
// compares strings as well as numbers.
func TestMatch(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, `cores >= 50000 && !(arch == "cray")`, false, 128, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "1 resource(s) match \"cores >= 50000 && !(arch == \\\"cray\\\")\":\n  stampede\n"; got != want {
		t.Fatalf("output %q, want %q", got, want)
	}
}

// TestMatchUnknownField: a requirement naming an unknown field fails with
// the same message every time, listing the known fields in order.
func TestMatchUnknownField(t *testing.T) {
	var first error
	for i := 0; i < 2; i++ {
		err := run(&bytes.Buffer{}, "corez > 1", false, 128, 1)
		if err == nil {
			t.Fatal("unknown field accepted")
		}
		if i == 0 {
			first = err
		} else if err.Error() != first.Error() {
			t.Fatalf("messages differ between runs:\n%v\n%v", first, err)
		}
	}
	if !strings.Contains(first.Error(), "(known: arch, bandwidth_mbps, cores, cores_per_node, free_nodes, median_wait_s, name, net_latency_ms, nodes, queued_jobs, storage_gb, utilization)") {
		t.Fatalf("known fields not listed in order: %v", first)
	}
}
