package skeleton

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// oracle is Index as a Go map, the way it was kept before it became a slot
// table: each ID's position, with the same rules and the same all-or-nothing
// batches.
type oracle map[string]int32

func (m oracle) add(tasks []Task) bool {
	for i, t := range tasks {
		if !m.admits(&t) {
			for _, u := range tasks[:i] {
				delete(m, u.ID)
			}
			return false
		}
		m[t.ID] = int32(len(m))
	}
	return true
}

func (m oracle) admits(t *Task) bool {
	if _, dup := m[t.ID]; t.ID == "" || dup || t.Cores <= 0 || t.Duration < 0 {
		return false
	}
	for _, f := range t.Inputs {
		if _, known := m[f.Producer]; f.Bytes < 0 || f.Producer != "" && !known {
			return false
		}
	}
	for _, f := range t.Outputs {
		if f.Bytes < 0 {
			return false
		}
	}
	for _, dep := range t.Deps {
		if _, known := m[dep]; !known {
			return false
		}
	}
	return true
}

// checkAgainstOracle adds batches to an Index and to the oracle alike: each
// batch must be accepted or rejected by both, and after each the Index must
// hold as many tasks and answer Lookup of every ID in ids, and of every ID
// of every batch, exactly as the oracle does — after a rejected batch, as it
// did before it. It returns how many batches were accepted.
func checkAgainstOracle(t *testing.T, batches [][]Task, ids []string) (accepted int) {
	t.Helper()
	var x Index
	m := oracle{}
	for b, batch := range batches {
		err := x.Add(batch)
		ok := m.add(batch)
		if ok != (err == nil) {
			t.Fatalf("batch %d of %d tasks: Add says %v, the oracle accepts it: %v", b, len(batch), err, ok)
		}
		if ok {
			accepted++
		}
		if x.Len() != len(m) {
			t.Fatalf("batch %d: Len %d, oracle %d", b, x.Len(), len(m))
		}
		lookup := func(id string) {
			got, ok := x.Lookup(id)
			want, wantOK := m[id]
			if ok != wantOK || ok && got != want {
				t.Fatalf("batch %d: Lookup(%q) = %d, %v; oracle %d, %v", b, id, got, ok, want, wantOK)
			}
		}
		for _, id := range ids {
			lookup(id)
		}
		for _, seen := range batches {
			for i := range seen {
				lookup(seen[i].ID)
			}
		}
	}
	return accepted
}

// randomBatches draws up to six batches of fresh IDs whose dependencies and
// producers are earlier tasks, and breaks about half of them at a random
// task: a duplicate ID within the batch or from an earlier one, a later,
// unknown or own dependency or producer, or another rule. ids holds every ID
// drawn and a few never drawn.
func randomBatches(rng *rand.Rand) (batches [][]Task, ids []string) {
	name := func(i int) string { return "task-" + strconv.Itoa(i) }
	drawn := 0
	var held []string // the IDs of the unbroken batches so far
	for b := rng.Intn(6); b >= 0; b-- {
		batch := make([]Task, rng.Intn(1+rng.Intn(300)))
		for i := range batch {
			task := &batch[i]
			task.ID, task.Cores = name(drawn), 1
			drawn++
			for k := rng.Intn(4); k > 0 && len(held)+i > 0; k-- {
				var dep string
				if j := rng.Intn(len(held) + i); j < len(held) {
					dep = held[j]
				} else {
					dep = batch[j-len(held)].ID
				}
				if rng.Intn(2) == 0 {
					task.Deps = append(task.Deps, dep)
				} else {
					task.Inputs = append(task.Inputs, File{Name: dep + ".out", Bytes: 1, Producer: dep})
				}
			}
		}
		broken := len(batch) > 0 && rng.Intn(2) == 0
		if broken {
			i := rng.Intn(len(batch))
			task := &batch[i]
			switch rng.Intn(9) {
			case 0:
				if i > 0 {
					task.ID = batch[rng.Intn(i)].ID
				} else {
					task.ID = ""
				}
			case 1:
				if len(held) > 0 {
					task.ID = held[rng.Intn(len(held))]
				} else {
					task.Cores = 0
				}
			case 2:
				if i+1 < len(batch) {
					task.Deps = append(task.Deps, batch[i+1+rng.Intn(len(batch)-i-1)].ID)
				} else {
					task.Deps = append(task.Deps, task.ID)
				}
			case 3:
				task.Deps = append(task.Deps, "ghost")
			case 4:
				task.Inputs = append(task.Inputs, File{Name: "in", Bytes: 1, Producer: task.ID})
			case 5:
				task.Inputs = append(task.Inputs, File{Name: "in", Bytes: 1, Producer: "ghost"})
			case 6:
				task.Duration = -1
			case 7:
				task.Outputs = append(task.Outputs, File{Name: "out", Bytes: -1})
			case 8:
				task.Inputs = append(task.Inputs, File{Name: "ext", Bytes: -1})
			}
		} else {
			for i := range batch {
				held = append(held, batch[i].ID)
			}
		}
		batches = append(batches, batch)
	}
	for i := 0; i <= drawn+2; i++ {
		ids = append(ids, name(i))
	}
	return batches, append(ids, "", "ghost")
}

// TestIndexMatchesMapOracle checks Index against the oracle on seeded
// random batches: tables grow across several powers of two, and batches
// are rejected partway at every position.
func TestIndexMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	accepted, rejected := 0, 0
	for round := 0; round < 300; round++ {
		batches, ids := randomBatches(rng)
		n := checkAgainstOracle(t, batches, ids)
		accepted, rejected = accepted+n, rejected+len(batches)-n
	}
	if accepted < 100 || rejected < 100 {
		t.Fatalf("%d batches accepted and %d rejected: the draw covers too little", accepted, rejected)
	}
}

// batchesFrom reads batches of tasks out of fuzz bytes, two a step: an
// operation and its argument, an ID among 256 or a rule to break.
func batchesFrom(b []byte) [][]Task {
	id := func(arg byte) string { return "t" + strconv.Itoa(int(arg)) }
	batches := [][]Task{nil}
	for ; len(b) >= 2; b = b[2:] {
		op, arg := b[0]%6, b[1]
		cur := &batches[len(batches)-1]
		if op == 0 {
			batches = append(batches, nil)
			continue
		}
		if op == 1 || len(*cur) == 0 {
			*cur = append(*cur, Task{ID: id(arg), Cores: 1})
			continue
		}
		last := &(*cur)[len(*cur)-1]
		switch op {
		case 2:
			last.Deps = append(last.Deps, id(arg))
		case 3:
			last.Inputs = append(last.Inputs, File{Name: "in", Bytes: int64(arg), Producer: id(arg)})
		case 4:
			last.Outputs = append(last.Outputs, File{Name: "out", Bytes: int64(arg) - 8})
		case 5:
			switch arg % 4 {
			case 0:
				last.ID = ""
			case 1:
				last.Cores = 0
			case 2:
				last.Duration = -1
			case 3:
				last.Inputs = append(last.Inputs, File{Name: "ext", Bytes: -1})
			}
		}
	}
	return batches
}

// FuzzIndexAdd checks Index against the oracle on batches read from the
// fuzzer's bytes (batchesFrom).
func FuzzIndexAdd(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 2, 0, 0, 0, 1, 2, 3, 1, 1, 1})         // a duplicate across batches
	f.Add([]byte{1, 5, 1, 6, 2, 7, 1, 7, 0, 0, 1, 8, 2, 5})         // a later dependency, then a good batch
	f.Add([]byte{1, 1, 1, 2, 1, 1, 1, 3})                           // a duplicate within the batch
	f.Add([]byte{1, 9, 3, 9, 0, 0, 1, 10, 3, 9, 4, 2, 5, 1, 1, 11}) // a producer of itself, a broken rule
	f.Fuzz(func(t *testing.T, b []byte) {
		ids := []string{"", "t0", "t255", "ghost"}
		checkAgainstOracle(t, batchesFrom(b), ids)
	})
}

// TestIndexAllocates pins the index's cost: one slot table, 4 bytes a slot
// and twice as many slots as tasks, so indexing 2 048 tasks allocates one
// object of 16 KiB. The map it replaced cost 24 KiB a job on average over
// the paper's sizes, 8 to 2 048 tasks.
func TestIndexAllocates(t *testing.T) {
	tasks := make([]Task, 2048)
	for i := range tasks {
		tasks[i] = Task{ID: "stage-0." + strconv.Itoa(100000+i), Cores: 1}
	}
	add := func() {
		var x Index
		if err := x.Add(tasks); err != nil {
			t.Fatal(err)
		}
	}
	if objects := testing.AllocsPerRun(20, add); objects != 1 {
		t.Errorf("indexing %d tasks allocates %.0f objects, want 1", len(tasks), objects)
	}
	const maxBytes = 16<<10 + 512
	least := uint64(1 << 62)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		add()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d tasks: %d bytes", len(tasks), least)
	if least > maxBytes {
		t.Errorf("indexing %d tasks allocates %d bytes, want at most %d", len(tasks), least, maxBytes)
	}
}
