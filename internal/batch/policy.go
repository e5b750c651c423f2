package batch

import (
	"fmt"
	"sort"
	"time"

	"aimes/internal/sim"
)

// Policy selects which queued jobs to start given the current free nodes and
// the set of running jobs. Implementations must not mutate their arguments.
// EASY also has Select, the same choice in a fresh slice.
type Policy interface {
	// Name identifies the policy in traces and configuration.
	Name() string
	// AppendPicks appends to picks the indices into queue (in start order)
	// of jobs to launch now, and returns it. Selected jobs must collectively
	// fit within free nodes.
	AppendPicks(picks []int, queue []*Job, free int, now sim.Time, running []*Job) []int
}

// PolicyByName resolves a policy's configuration name — what its Name
// returns — so a configuration can hold the name, which is plain data, and
// not the interface. "" is the default, EASY backfilling.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "easy":
		return EASY{}, nil
	case "fcfs":
		return FCFS{}, nil
	case "conservative":
		return Conservative{}, nil
	}
	return nil, fmt.Errorf("batch: unknown policy %q (want \"fcfs\", \"easy\" or \"conservative\")", name)
}

// FCFS is strict first-come-first-served: jobs start in submission order and
// the queue head blocks everything behind it.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "fcfs" }

// AppendPicks implements Policy.
func (FCFS) AppendPicks(picks []int, queue []*Job, free int, _ sim.Time, _ []*Job) []int {
	for i, j := range queue {
		if j.Nodes > free {
			break
		}
		picks = append(picks, i)
		free -= j.Nodes
	}
	return picks
}

// EASY implements EASY backfilling (Feitelson & Weil): the queue head gets a
// reservation at the earliest time enough nodes will be free, and later jobs
// may jump ahead only if they do not delay that reservation — either they
// finish (by declared walltime) before the reservation, or they fit into
// nodes the reservation does not need. This is the de facto policy of the
// production machines in the paper's testbed.
type EASY struct{}

// Name implements Policy.
func (EASY) Name() string { return "easy" }

// Select returns the indices of the jobs to launch now.
func (p EASY) Select(queue []*Job, free int, now sim.Time, running []*Job) []int {
	return p.AppendPicks(nil, queue, free, now, running)
}

// AppendPicks implements Policy.
func (EASY) AppendPicks(picks []int, queue []*Job, free int, now sim.Time, running []*Job) []int {
	i := 0
	// FCFS prefix: start in order while jobs fit.
	for ; i < len(queue); i++ {
		if queue[i].Nodes > free {
			break
		}
		picks = append(picks, i)
		free -= queue[i].Nodes
	}
	if i >= len(queue) {
		return picks
	}
	head := queue[i]
	shadow, extra := reservation(head, free, now, running)
	// Backfill pass over the remaining queue.
	for k := i + 1; k < len(queue); k++ {
		j := queue[k]
		if j.Nodes > free {
			continue
		}
		endsBy := now.Add(j.Walltime)
		if endsBy <= shadow || j.Nodes <= extra {
			picks = append(picks, k)
			free -= j.Nodes
			if j.Nodes <= extra {
				extra -= j.Nodes
			}
		}
	}
	return picks
}

// reservation computes the EASY shadow time for the blocked queue head: the
// earliest time (by declared walltimes) at which head.Nodes become free, and
// how many nodes beyond the head's need will be free then. Jobs whose
// walltime expired at the current instant (end event not yet fired) count as
// ending momentarily, never in the past.
func reservation(head *Job, free int, now sim.Time, running []*Job) (shadow sim.Time, extra int) {
	if free >= head.Nodes {
		return 0, free - head.Nodes
	}
	endOf := func(j *Job) sim.Time {
		end := j.expectedEnd()
		if end <= now {
			return now + 1
		}
		return end
	}
	ends := make([]*Job, len(running))
	copy(ends, running)
	sort.Slice(ends, func(a, b int) bool { return endOf(ends[a]) < endOf(ends[b]) })
	avail := free
	for _, r := range ends {
		avail += r.Nodes
		if avail >= head.Nodes {
			return endOf(r), avail - head.Nodes
		}
	}
	// Head can never run (requests more nodes than the machine has); callers
	// validate against this, but be defensive.
	return sim.Forever, 0
}

// Conservative implements conservative backfilling: every queued job receives
// a reservation in arrival order against a node-availability profile, and a
// job starts now only when its reservation is now. No job is ever delayed by
// a backfilled one, at the cost of fewer backfill opportunities than EASY.
type Conservative struct{}

// Name implements Policy.
func (Conservative) Name() string { return "conservative" }

// AppendPicks implements Policy.
func (Conservative) AppendPicks(picks []int, queue []*Job, free int, now sim.Time, running []*Job) []int {
	if len(queue) == 0 {
		return picks
	}
	prof := newProfile(now, free, running)
	for i, j := range queue {
		start := prof.earliest(j.Nodes, j.Walltime)
		prof.reserve(start, j.Nodes, j.Walltime)
		if start == now && j.Nodes <= free {
			picks = append(picks, i)
			free -= j.Nodes
		}
	}
	return picks
}

// profile is a piecewise-constant availability timeline used by the
// conservative policy. Breakpoints are kept sorted; avail[k] is the node
// availability in [times[k], times[k+1]).
type profile struct {
	times []sim.Time
	avail []int
}

func newProfile(now sim.Time, free int, running []*Job) *profile {
	p := &profile{times: []sim.Time{now}, avail: []int{free}}
	for _, r := range running {
		end := r.expectedEnd()
		if end <= now {
			// The job's walltime has expired but its end event has not fired
			// yet (same-timestamp ordering): its nodes are NOT free now.
			// Releasing them at now would let the policy overcommit.
			end = now + 1
		}
		p.release(end, r.Nodes)
	}
	return p
}

// release adds n nodes to the profile from time t onward.
func (p *profile) release(t sim.Time, n int) {
	idx := p.breakpoint(t)
	for k := idx; k < len(p.avail); k++ {
		p.avail[k] += n
	}
}

// reserve removes n nodes during [start, start+d).
func (p *profile) reserve(start sim.Time, n int, d time.Duration) {
	if start == sim.Forever {
		return
	}
	end := start.Add(d)
	si := p.breakpoint(start)
	ei := p.breakpoint(end)
	for k := si; k < ei; k++ {
		p.avail[k] -= n
	}
}

// breakpoint ensures a breakpoint exists at t and returns its index. Times
// before the profile start are clamped to the start.
func (p *profile) breakpoint(t sim.Time) int {
	if t <= p.times[0] {
		return 0
	}
	i := sort.Search(len(p.times), func(k int) bool { return p.times[k] >= t })
	if i < len(p.times) && p.times[i] == t {
		return i
	}
	// Insert a new breakpoint carrying the availability of the segment it
	// splits; t > times[0] guarantees i >= 1, so segment i-1 contains t.
	p.times = append(p.times, 0)
	p.avail = append(p.avail, 0)
	copy(p.times[i+1:], p.times[i:])
	copy(p.avail[i+1:], p.avail[i:])
	p.times[i] = t
	p.avail[i] = p.avail[i-1]
	return i
}

// earliest finds the first time n nodes are available for duration d.
func (p *profile) earliest(n int, d time.Duration) sim.Time {
	for idx := 0; idx < len(p.times); idx++ {
		start := p.times[idx]
		end := start.Add(d)
		ok := true
		for k := idx; k < len(p.times); k++ {
			if p.times[k] >= end {
				break
			}
			if p.avail[k] < n {
				ok = false
				break
			}
		}
		if ok {
			return start
		}
	}
	return sim.Forever
}
