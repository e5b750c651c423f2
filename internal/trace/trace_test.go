package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"aimes/internal/sim"
)

func at(sec int) sim.Time { return sim.Time(time.Duration(sec) * time.Second) }

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	r.Record(at(1), "pilot.a", "NEW", "")
	r.Record(at(2), "pilot.a", "ACTIVE", "on stampede")
	r.Record(at(3), "unit.1", "EXECUTING", "")
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if recs := r.Records(); recs[0].State != "NEW" || recs[1].Detail != "on stampede" || recs[2].Entity != "unit.1" {
		t.Fatalf("Records = %+v", recs)
	}
	if got := r.ByState("EXECUTING"); len(got) != 1 || got[0].Entity != "unit.1" {
		t.Fatalf("ByState = %+v", got)
	}
}

func TestRecorderFirst(t *testing.T) {
	r := NewRecorder()
	r.Record(at(5), "unit.1", "DONE", "")
	r.Record(at(2), "unit.1", "DONE", "")
	rec, ok := r.First("unit.1", "DONE")
	if !ok || rec.Time != at(2) {
		t.Fatalf("First = %+v ok=%v, want time 2s", rec, ok)
	}
	if _, ok := r.First("unit.1", "MISSING"); ok {
		t.Fatal("First found a record that does not exist")
	}
}

func TestRecorderJSONRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.Record(at(1), "a", "S1", "d")
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back []Record
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Entity != "a" || back[0].State != "S1" {
		t.Fatalf("round trip = %+v", back)
	}
}

// TestRecorderCSV round-trips a free-text detail — a comma, a quote and a
// newline, as a client-supplied cancel reason may hold — through csv.Reader:
// every row keeps the header's field count and the detail comes back intact.
func TestRecorderCSV(t *testing.T) {
	const detail = "user said \"stop\", twice\nthen left"
	r := NewRecorder()
	r.Record(at(1), "em", "CANCELED", detail)
	r.Record(at(2), "unit.a", "DONE", "")
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll() // errors on a row of another width
	if err != nil {
		t.Fatalf("not CSV: %v\n%s", err, buf.String())
	}
	want := [][]string{
		{"time_s", "entity", "state", "detail"},
		{"1.000", "em", "CANCELED", detail},
		{"2.000", "unit.a", "DONE", ""},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows %q, want %q", rows, want)
	}
}

func TestQualifyEntity(t *testing.T) {
	cases := map[string]string{
		"em":                  "em.s2-j7",
		"unit.task-0004":      "unit.s2-j7.task-0004",
		"pilot.comet.s2-j7-1": "pilot.comet.s2-j7-1", // already namespaced at source
		"pilot.stampede.3":    "pilot.stampede.3",
		"link.stampede":       "link.stampede",
	}
	for in, want := range cases {
		if got := QualifyEntity(in, "s2-j7"); got != want {
			t.Fatalf("QualifyEntity(%q) = %q, want %q", in, got, want)
		}
	}
}
