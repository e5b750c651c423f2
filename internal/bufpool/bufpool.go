// Package bufpool lends the HTTP tier's per-request byte buffers — an SSE
// batch, a submit body, an encoded job snapshot, a reply read by the client —
// from sync.Pools, as net/http lends its readers and writers, so a job that
// crosses the tier twice (submit, then wait or stream) does not pay for fresh
// buffers each time. A buffer goes back only once nothing that outlives its
// request aliases it, and one grown past maxPooled is left to the collector,
// so a single large body cannot pin memory.
package bufpool

import (
	"io"
	"math"
	"sync"
)

// maxPooled is the largest capacity Put keeps.
const maxPooled = 64 << 10

// minGrow is the least Append grows a full buffer by.
const minGrow = 4 << 10

// A Pool lends buffers of one use — SSE batches, request bodies — so that
// each use's buffers keep to that use's size. The zero Pool is ready.
type Pool struct{ p sync.Pool }

// Get returns an empty buffer: one an earlier Put gave back, when the pool
// has one.
func (p *Pool) Get() *[]byte {
	if b, ok := p.p.Get().(*[]byte); ok {
		return b
	}
	return new([]byte)
}

// Put gives b back for reuse, emptied, unless it has grown past maxPooled.
// The caller must not touch b, or any slice of it, afterwards.
func (p *Pool) Put(b *[]byte) {
	if cap(*b) > maxPooled {
		return
	}
	*b = (*b)[:0]
	p.p.Put(b)
}

// Append appends what r reads to dst, until EOF — which is not an error — or
// until limit bytes were appended, and returns the extended buffer. dst grows
// as the bytes arrive, doubling and never past the limit, so a reader that
// promises much and delivers little costs about what it delivered.
func Append(dst []byte, r io.Reader, limit int) ([]byte, error) {
	end := len(dst) + min(limit, math.MaxInt-len(dst))
	for len(dst) < end {
		if len(dst) == cap(dst) {
			grown := make([]byte, len(dst), min(end, max(2*cap(dst), len(dst)+minGrow)))
			dst = grown[:copy(grown, dst)]
		}
		n, err := r.Read(dst[len(dst):min(cap(dst), end)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}
