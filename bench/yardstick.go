package main

import (
	"container/heap"
	"runtime"
	"strconv"
	"time"
)

// The runner is a shared 2-core VM whose speed drifts by a quarter or more
// over minutes; jobs/s and CPU per job move together, so it is the machine,
// not the scheduler. The yardstick is a fixed piece of work, none of it code
// under test, with the program's own habits (an event heap, closures, string
// building, slice growth, a map), run between epochs outside the timed
// region. A round's times are multiplied by yardstickRef over the round's
// mean yardstick time, which reports them at the speed of the quiet runner.
// README.md has the spreads with and without it on each workload: between
// runs of one seed, 10-30% as the clock reads and 3-10% corrected.
//
// yardstickRef is the yardstick's time on the quiet runner, so corrected
// and raw numbers agree there.
const yardstickRef = 20 * time.Millisecond

type yardEvent struct {
	when uint64
	fire func()
}

type yardHeap []*yardEvent

func (h yardHeap) Len() int           { return len(h) }
func (h yardHeap) Less(i, j int) bool { return h[i].when < h[j].when }
func (h yardHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *yardHeap) Push(x any)        { *h = append(*h, x.(*yardEvent)) }
func (h *yardHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

type yardRecord struct {
	at            int
	entity, state string
}

// yardstick times the fixed work once, from a collected heap.
func yardstick() time.Duration {
	runtime.GC()
	t0 := time.Now()
	var h yardHeap
	var recs []yardRecord
	seen := map[string]int{}
	x := uint64(88172645463325252) // xorshift64: the same event times every call
	for i := 0; i < 30000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		heap.Push(&h, &yardEvent{when: x % 1000000, fire: func() {
			name := "unit.s0-j" + strconv.Itoa(i%97) + ".t" + strconv.Itoa(i)
			recs = append(recs, yardRecord{i, name, "EXECUTING"})
			seen[name[:12]]++
		}})
		if i%3 == 2 {
			heap.Pop(&h).(*yardEvent).fire()
		}
	}
	for h.Len() > 0 {
		heap.Pop(&h).(*yardEvent).fire()
	}
	sunk += len(recs) + len(seen)
	return time.Since(t0)
}

// speed is the runner's speed over n yardstick calls that took total: 1 on
// the quiet runner, below 1 when it is slowed. Times are multiplied by it.
func speed(total time.Duration, n int) float64 {
	if total <= 0 {
		return 1
	}
	return float64(yardstickRef) * float64(n) / float64(total)
}
