package scenario

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"aimes/internal/netsim"
	"aimes/internal/pilot"
	"aimes/internal/saga"
	"aimes/internal/sim"
	"aimes/internal/site"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// lifecycle is one state model of internal/pilot/states.go written as the
// moves each state allows (P*, PAPERS.md): the specification the traces are
// checked against. It lives here, beside its checks, and not in the product.
type lifecycle struct {
	prefix string              // the entities it governs: "pilot." or "unit."
	first  string              // the state every path starts in
	moves  map[string][]string // legal successors; a final state has none
}

// lifecycleOf names a model's states. It panics when the table disagrees
// with states.go about which states are final.
func lifecycleOf[S interface {
	comparable
	String() string
	Final() bool
}](prefix string, first S, moves map[S][]S) lifecycle {
	l := lifecycle{prefix: prefix, first: first.String(), moves: make(map[string][]string)}
	for from, to := range moves {
		if from.Final() != (len(to) == 0) {
			panic(fmt.Sprintf("%s model: %v is final %v but has %d moves", prefix, from, from.Final(), len(to)))
		}
		var names []string
		for _, s := range to {
			names = append(names, s.String())
		}
		l.moves[from.String()] = names // a final state's key holds nil
	}
	return l
}

var pilotLifecycle = lifecycleOf("pilot.", pilot.PilotNew, map[pilot.PilotState][]pilot.PilotState{
	pilot.PilotNew:       {pilot.PilotLaunching, pilot.PilotFailed},
	pilot.PilotLaunching: {pilot.PilotPending, pilot.PilotActive, pilot.PilotDone, pilot.PilotCanceled, pilot.PilotFailed},
	pilot.PilotPending:   {pilot.PilotActive, pilot.PilotDone, pilot.PilotCanceled, pilot.PilotFailed},
	pilot.PilotActive:    {pilot.PilotDone, pilot.PilotCanceled, pilot.PilotFailed},
	pilot.PilotDone:      nil,
	pilot.PilotCanceled:  nil,
	pilot.PilotFailed:    nil,
})

var unitLifecycle = lifecycleOf("unit.", pilot.UnitNew, map[pilot.UnitState][]pilot.UnitState{
	pilot.UnitNew:          {pilot.UnitScheduling},
	pilot.UnitScheduling:   {pilot.UnitStagingInput, pilot.UnitFailed, pilot.UnitCanceled},
	pilot.UnitStagingInput: {pilot.UnitAgentQueued, pilot.UnitScheduling, pilot.UnitFailed, pilot.UnitCanceled},
	pilot.UnitAgentQueued:  {pilot.UnitExecuting, pilot.UnitScheduling, pilot.UnitFailed, pilot.UnitCanceled},
	// Back to AGENT_QUEUED is a restart; back to SCHEDULING, a lost pilot.
	pilot.UnitExecuting:     {pilot.UnitStagingOutput, pilot.UnitDone, pilot.UnitAgentQueued, pilot.UnitScheduling, pilot.UnitFailed, pilot.UnitCanceled},
	pilot.UnitStagingOutput: {pilot.UnitDone, pilot.UnitCanceled},
	pilot.UnitDone:          nil,
	pilot.UnitFailed:        nil,
	pilot.UnitCanceled:      nil,
})

// illegalPaths returns one line for every pilot and unit record in recs
// that is not a legal move of its entity's lifecycle from the entity's
// previous record: a first record in another state than the model's first,
// a state the model does not know, a move the model does not allow, or any
// record after a final state. Other entities ("em", "chaos") are skipped.
func illegalPaths(recs []trace.Record) []string {
	var bad []string
	last := make(map[string]string)
	for _, r := range recs {
		l := &unitLifecycle
		if strings.HasPrefix(r.Entity, pilotLifecycle.prefix) {
			l = &pilotLifecycle
		} else if !strings.HasPrefix(r.Entity, unitLifecycle.prefix) {
			continue
		}
		prev, seen := last[r.Entity]
		last[r.Entity] = r.State
		if _, known := l.moves[r.State]; !known {
			bad = append(bad, fmt.Sprintf("%s: unknown state %s at %v", r.Entity, r.State, r.Time))
			continue
		}
		switch {
		case !seen && r.State != l.first:
			bad = append(bad, fmt.Sprintf("%s: starts in %s at %v, not %s", r.Entity, r.State, r.Time, l.first))
		case seen && !slices.Contains(l.moves[prev], r.State):
			bad = append(bad, fmt.Sprintf("%s: %s → %s at %v", r.Entity, prev, r.State, r.Time))
		}
	}
	return bad
}

// TestScenarioTracesFollowStateModels runs every file of the scenario
// corpus on its default backend and checks that each pilot's and unit's
// trace is a legal path through its state model: outages, preemptions,
// surges, WAN faults, worker deaths and the wedged jobs a drain fails.
func TestScenarioTracesFollowStateModels(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole scenario corpus")
	}
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario corpus: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			f, err := os.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Parse(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			o, err := Run(s, EnvOptions{})
			if err != nil {
				t.Fatal(err)
			}
			recs := o.Recorder.Records()
			if len(recs) == 0 {
				t.Fatal("the run traced nothing")
			}
			for _, line := range illegalPaths(recs) {
				t.Error(line)
			}
		})
	}
}

// TestCanceledExecutingUnitFollowsStateModel cancels one unit while it
// executes on a live pilot, the others running on, and checks every path
// the run traced. The canceled unit's path must end at CANCELED; the
// checker must flag the path a cancel that left the run armed once wrote
// (STAGING_OUTPUT and DONE after CANCELED).
func TestCanceledExecutingUnitFollowsStateModel(t *testing.T) {
	eng := sim.NewSim()
	tb, err := site.NewTestbed(eng, site.DefaultTestbed(), sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	sess := saga.NewSession()
	for _, s := range tb.Sites() {
		sess.Register(saga.NewBatchAdaptor(eng, s))
	}
	links := func(resource string) *netsim.Link { return tb.Site(resource).Link() }
	rec := trace.NewRecorder()
	sys := pilot.NewSystem(eng, sess, links, rec, pilot.DefaultConfig(), rand.New(rand.NewSource(7)))
	pm := pilot.NewPilotManager(sys, 1)
	p, err := pm.Submit(pilot.PilotDescription{Resource: "stampede", Cores: 2, Walltime: 12 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	um := pilot.NewUnitManager(sys, pilot.Direct{}, 1)
	um.AddPilot(p)
	um.OnCompletion(pm.CancelAll)
	tasks := make([]skeleton.Task, 3)
	for i := range tasks {
		tasks[i] = skeleton.Task{ID: fmt.Sprintf("t%d", i), Cores: 1, Duration: 10 * time.Minute,
			Inputs: []skeleton.File{{Bytes: 1 << 20}}, Outputs: []skeleton.File{{Bytes: 2 << 10}}}
	}
	var names skeleton.Index
	if err := names.Add(tasks); err != nil {
		t.Fatal(err)
	}
	if err := um.Submit(tasks, names); err != nil {
		t.Fatal(err)
	}

	var victim *pilot.Unit
	for victim == nil && eng.StepN(1) == 1 {
		for u := range um.All() {
			if u.State() == pilot.UnitExecuting {
				victim = u
				break
			}
		}
	}
	if victim == nil {
		t.Fatal("no unit ever executed")
	}
	um.Cancel(victim)
	for eng.StepN(1024) > 0 {
	}

	var path []string
	entity := "unit." + victim.Task().ID
	for _, r := range rec.Records() {
		if r.Entity == entity {
			path = append(path, r.State)
		}
	}
	if n := len(path); n < 2 || path[n-2] != pilot.UnitExecuting.String() || path[n-1] != pilot.UnitCanceled.String() {
		t.Errorf("the canceled unit's path is %v, want it to end EXECUTING, CANCELED", path)
	}
	for u := range um.All() {
		if !u.State().Final() {
			t.Errorf("unit %s ended the run %v", u.Task().ID, u.State())
		}
	}
	for _, line := range illegalPaths(rec.Records()) {
		t.Error(line)
	}

	var armed []trace.Record
	for _, s := range []pilot.UnitState{pilot.UnitNew, pilot.UnitScheduling, pilot.UnitStagingInput, pilot.UnitAgentQueued,
		pilot.UnitExecuting, pilot.UnitCanceled, pilot.UnitStagingOutput, pilot.UnitDone} {
		armed = append(armed, trace.Record{Entity: entity, State: s.String()})
	}
	if bad := illegalPaths(armed); len(bad) != 1 || !strings.Contains(bad[0], "CANCELED → STAGING_OUTPUT") {
		t.Errorf("the checker reads STAGING_OUTPUT and DONE after CANCELED as %q, want one illegal move out of CANCELED", bad)
	}
}
