package backend

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"aimes/internal/batch"
	"aimes/internal/site"
)

// Chaos actions understood by Inject. The testbed actions mirror the
// scenario vocabulary (outage, recover, preempt-pilot, queue-surge,
// degrade-wan, restore-wan); kill-worker is the fleet action — it severs the
// hosting worker's transport at the scheduled virtual time, so the parent
// observes a worker death at a deterministic point in the trajectory
// instead of at a wall-clock-racy one.
const (
	ChaosOutage     = "outage"
	ChaosRecover    = "recover"
	ChaosPreempt    = "preempt-pilot"
	ChaosSurge      = "queue-surge"
	ChaosDegradeWAN = "degrade-wan"
	ChaosRestoreWAN = "restore-wan"
	ChaosKillWorker = "kill-worker"
)

// ChaosEvent is one scheduled fault injection. After is the delay from
// receipt in the shard's virtual time; the remaining fields parameterize the
// action the same way scenario events do. The struct crosses the wire as a
// JSON blob, so worker shards take injections identically to local ones.
type ChaosEvent struct {
	After           time.Duration `json:"after,omitempty"`
	Action          string        `json:"action"`
	Target          string        `json:"target,omitempty"`
	KillRunning     *bool         `json:"kill_running,omitempty"`
	Reason          string        `json:"reason,omitempty"`
	WaitFactor      float64       `json:"wait_factor,omitempty"`
	Jobs            int           `json:"jobs,omitempty"`
	JobNodes        int           `json:"job_nodes,omitempty"`
	JobRuntime      time.Duration `json:"job_runtime,omitempty"`
	Duration        time.Duration `json:"duration,omitempty"`
	BandwidthFactor float64       `json:"bandwidth_factor,omitempty"`
}

// killRunning defaults to true: an outage kills running jobs unless the
// event explicitly asks for a drain.
func (ev ChaosEvent) killRunning() bool {
	return ev.KillRunning == nil || *ev.KillRunning
}

// SetSever arms the kill-worker chaos action: fn must sever the worker's
// transport so the parent observes a dead shard. The serve loop sets it on
// every hosted shard; in-process shards leave it nil and reject kill-worker.
func (l *Local) SetSever(fn func()) { l.sever = fn }

// Inject implements Backend: it validates the event against this shard and
// schedules its application After from now in virtual time. Events injected
// before enactment land at deterministic trajectory points, which is what
// makes chaos scenarios assertable.
func (l *Local) Inject(ev ChaosEvent) error {
	if ev.After < 0 {
		return fmt.Errorf("backend: chaos %s: negative delay %s", ev.Action, ev.After)
	}
	switch ev.Action {
	case ChaosOutage, ChaosRecover, ChaosPreempt, ChaosSurge, ChaosDegradeWAN, ChaosRestoreWAN:
		if l.testbed.Site(ev.Target) == nil {
			return fmt.Errorf("backend: chaos %s: unknown site %q", ev.Action, ev.Target)
		}
	case ChaosKillWorker:
		if l.sever == nil {
			return fmt.Errorf("backend: chaos kill-worker: shard is not worker-hosted")
		}
	default:
		return fmt.Errorf("backend: unknown chaos action %q", ev.Action)
	}
	l.eng.Schedule(ev.After, func() { l.applyChaos(ev) })
	return nil
}

// chaosRecord logs an applied chaos action into every live job's trace as
// entity "chaos" (state = uppercased action), so applications and scenario
// assertions observe injected faults through the same stream as every other
// state change.
func (l *Local) chaosRecord(action, target, detail string) {
	msg := detail
	if target != "" {
		msg = target + ": " + detail
	}
	keys := make([]int, 0, len(l.execs))
	for k := range l.execs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		l.execs[k].Trace().Record(l.eng.Now(), "chaos", strings.ToUpper(action), msg)
	}
}

// applyChaos fires one scheduled event against the live stack.
func (l *Local) applyChaos(ev ChaosEvent) {
	st := l.testbed.Site(ev.Target)
	switch ev.Action {
	case ChaosOutage:
		kill := ev.killRunning()
		st.SetOffline(kill)
		mode := "drain"
		if kill {
			mode = "hard, running jobs killed"
		}
		l.chaosRecord(ev.Action, ev.Target, mode)
	case ChaosRecover:
		st.SetOnline()
		l.chaosRecord(ev.Action, ev.Target, "back online")
	case ChaosPreempt:
		reason := ev.Reason
		if reason == "" {
			reason = "chaos"
		}
		if l.preemptPilot(ev.Target, reason) {
			l.chaosRecord(ev.Action, ev.Target, reason)
		} else {
			l.chaosRecord(ev.Action, ev.Target, "no pilot to preempt")
		}
	case ChaosSurge:
		l.applySurge(ev, st)
	case ChaosDegradeWAN:
		nominal := st.Config().BandwidthMBps * 1e6
		st.Link().SetBandwidth(nominal * ev.BandwidthFactor)
		l.chaosRecord(ev.Action, ev.Target, fmt.Sprintf("bandwidth ×%g", ev.BandwidthFactor))
		if ev.Duration > 0 {
			restore := ChaosEvent{Action: ChaosRestoreWAN, Target: ev.Target}
			l.eng.Schedule(ev.Duration, func() { l.applyChaos(restore) })
		}
	case ChaosRestoreWAN:
		st.Link().SetBandwidth(st.Config().BandwidthMBps * 1e6)
		l.chaosRecord(ev.Action, ev.Target, "bandwidth restored")
	case ChaosKillWorker:
		// No record: the transport dies with this callback, so nothing
		// buffered after it can reach the parent anyway.
		l.sever()
	}
}

// preemptPilot tries the preemption against every live execution in key
// order until one owns a preemptible pilot on the target resource.
func (l *Local) preemptPilot(target, reason string) bool {
	keys := make([]int, 0, len(l.execs))
	for k := range l.execs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if l.execs[k].PreemptPilot(target, reason) {
			return true
		}
	}
	return false
}

// applySurge injects a background-load burst. Modeled queues scale future
// sampled waits; emergent queues get a burst of real competing jobs.
func (l *Local) applySurge(ev ChaosEvent, st *site.Site) {
	if st.SetWaitScale(ev.WaitFactor) {
		l.chaosRecord(ev.Action, ev.Target, fmt.Sprintf("waits ×%g", ev.WaitFactor))
		if ev.Duration > 0 {
			l.eng.Schedule(ev.Duration, func() {
				st.SetWaitScale(1)
				l.chaosRecord(ev.Action, ev.Target, "surge ended")
			})
		}
		return
	}
	nodes := ev.JobNodes
	if nodes <= 0 {
		nodes = 8
	}
	if max := st.Config().Nodes; nodes > max {
		nodes = max
	}
	runtime := ev.JobRuntime
	if runtime <= 0 {
		runtime = time.Hour
	}
	for i := 0; i < ev.Jobs; i++ {
		l.surgeSeq++
		job := &batch.Job{
			ID:       fmt.Sprintf("surge-%04d", l.surgeSeq),
			Nodes:    nodes,
			Runtime:  runtime,
			Walltime: 2 * runtime,
		}
		if err := st.Queue().Submit(job); err != nil {
			l.chaosRecord(ev.Action, ev.Target, "burst submission failed: "+err.Error())
			return
		}
	}
	l.chaosRecord(ev.Action, ev.Target, fmt.Sprintf("%d jobs × %d nodes", ev.Jobs, nodes))
}
