package trace

import (
	"testing"

	"aimes/internal/sim"
)

func TestWireRecordRoundTrip(t *testing.T) {
	cases := []Record{
		{Time: 0, Entity: "em", State: "ENACTING", Detail: "late binding"},
		{Time: sim.Time(1234567890), Entity: "pilot.stampede.s0-j1-1", State: "ACTIVE"},
		{Time: sim.Forever, Entity: "unit.t0001", State: "DONE", Detail: "with, comma"},
	}
	var buf []byte
	for _, rec := range cases {
		buf = WireRecord(rec).AppendWire(buf)
	}
	buf = append(buf, 0xff) // what follows the records is handed back
	for _, rec := range cases {
		var back WireRecord
		rest, err := back.DecodeWire(buf, nil)
		if err != nil {
			t.Fatalf("decode %+v: %v", rec, err)
		}
		if Record(back) != rec {
			t.Fatalf("round trip %+v → %+v", rec, Record(back))
		}
		buf = rest
	}
	if len(buf) != 1 || buf[0] != 0xff {
		t.Fatalf("after the records, %x remains, want ff", buf)
	}
}

func TestWireRecordRejectsMalformed(t *testing.T) {
	whole := WireRecord{Time: 5, Entity: "em", State: "DONE", Detail: "d"}.AppendWire(nil)
	for n := range len(whole) {
		var r WireRecord
		if _, err := r.DecodeWire(whole[:n], nil); err == nil {
			t.Fatalf("a record cut to %d of its %d bytes decoded without error", n, len(whole))
		}
	}
}
