package bufpool

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"testing/iotest"
)

// TestAppendGrowsAsBytesArrive: Append keeps what dst holds, reads to EOF or
// to its limit, whichever comes first, however the reader splits its bytes,
// and grows dst by doubling, never past the limit — so a reader that promises
// much and sends little costs one small buffer.
func TestAppendGrowsAsBytesArrive(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789"), 1000)
	readers := map[string]func() io.Reader{
		"whole":         func() io.Reader { return bytes.NewReader(data) },
		"a byte a time": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
		"EOF with data": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(data)) },
	}
	for _, limit := range []int{0, 10, 4095, 9999, 10000, 1 << 30, math.MaxInt} {
		for name, r := range readers {
			got, err := Append([]byte("head"), r(), limit)
			want := append([]byte("head"), data[:min(limit, len(data))]...)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s, limit %d: read %d bytes (%v), want %d", name, limit, len(got), err, len(want))
			}
			if cap(got)-4 > limit || cap(got) > 2*len(got)+minGrow {
				t.Errorf("%s, limit %d: %d bytes in a buffer of %d", name, limit, len(got), cap(got))
			}
		}
	}
	got, err := Append(nil, bytes.NewReader(data[:10]), 1<<30)
	if err != nil || len(got) != 10 || cap(got) != minGrow {
		t.Errorf("10 bytes of a promised GiB: %d bytes (%v) in a buffer of %d, want 10 in %d", len(got), err, cap(got), minGrow)
	}
	broken := errors.New("connection reset")
	got, err = Append(nil, io.MultiReader(bytes.NewReader(data[:10]), iotest.ErrReader(broken)), 1<<30)
	if err != broken || string(got) != string(data[:10]) {
		t.Errorf("a reader failing after 10 bytes: %q, %v; want the 10 bytes and its error", got, err)
	}
}
