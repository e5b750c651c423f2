package batch

import (
	"sort"

	"aimes/internal/sim"
)

// EASY implements EASY backfilling (Feitelson & Weil): the queue head gets a
// reservation at the earliest time enough nodes will be free, and later jobs
// may jump ahead only if they do not delay that reservation — either they
// finish (by declared walltime) before the reservation, or they fit into
// nodes the reservation does not need. This is the de facto policy of the
// production machines in the paper's testbed, and the one every emergent
// queue runs. It must not mutate its arguments.
type EASY struct{}

// Select returns the indices of the jobs to launch now.
func (p EASY) Select(queue []*Job, free int, now sim.Time, running []*Job) []int {
	return p.AppendPicks(nil, queue, free, now, running)
}

// AppendPicks appends to picks the indices into queue (in start order) of
// the jobs to launch now, which collectively fit within free nodes, and
// returns it.
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
