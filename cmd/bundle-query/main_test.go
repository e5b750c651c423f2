package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestCharacterizeAll: with no flags, every resource of the default testbed
// gets a row with its compute, network and storage characterization.
func TestCharacterizeAll(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, false, 128, 1); err != nil {
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

// TestPredict: with archived history every resource gets a median and a p90
// wait bound, the median no later than the p90, over all the observations;
// with none, every bound is "-" and the observation count is 0.
func TestPredict(t *testing.T) {
	for _, history := range []int{128, 0} {
		var out bytes.Buffer
		if err := run(&out, true, history, 1); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != 6 || !strings.HasPrefix(lines[0], "resource") {
			t.Fatalf("history %d: want a header and five rows:\n%s", history, out.String())
		}
		for _, line := range lines[1:] {
			row := strings.Fields(line)
			if len(row) != 4 || row[3] != strconv.Itoa(history) {
				t.Fatalf("history %d: row %q, want four fields ending in %d", history, line, history)
			}
			if history == 0 {
				if row[1] != "-" || row[2] != "-" {
					t.Fatalf("row %q: bounds without history", line)
				}
				continue
			}
			med, err1 := time.ParseDuration(row[1])
			p90, err2 := time.ParseDuration(row[2])
			if err1 != nil || err2 != nil || med <= 0 || med > p90 {
				t.Fatalf("row %q: want two bounds with median <= p90", line)
			}
		}
	}
}
