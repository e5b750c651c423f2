package pilot

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"aimes/internal/netsim"
	"aimes/internal/sim"
)

// TestUnitFootprint pins the size of a unit and of the two structs every unit
// embeds, its transfer and, inside that, an event. A job allocates one Unit
// per task in one slab, so every byte here is paid per task: a unit points at
// its task in the caller's workload (a copy of a unit description would add
// 88 bytes), its run ends on its transfer's timer (an event of its own was 40
// bytes), its dependents are a list head into its manager's edges (a slice
// was 24 bytes), and its transfer keeps no size, no flag and no timestamps.
func TestUnitFootprint(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"pilot.Unit", unsafe.Sizeof(Unit{}), 136},
		{"sim.Event", unsafe.Sizeof(sim.Event{}), 40},
		{"netsim.Transfer", unsafe.Sizeof(netsim.Transfer{}), 72},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want at most %d", c.name, c.size, c.max)
		}
	}
}

// TestPilotFormattersMatchSprintf holds the pilot ID and the NEW record's
// detail, built with strconv appends, to the fmt.Sprintf calls they
// replaced, byte for byte.
func TestPilotFormattersMatchSprintf(t *testing.T) {
	for _, ns := range []string{"", "s1-j42"} {
		for _, resource := range []string{"stampede", "x", "a-resource-name-long-enough-to-outgrow-the-stack-buffer"} {
			s := &System{ns: ns}
			for s.seq = 1; s.seq <= 1000; s.seq++ {
				want := fmt.Sprintf("pilot.%s.%d", resource, s.seq)
				if ns != "" {
					want = fmt.Sprintf("pilot.%s.%s-%d", resource, ns, s.seq)
				}
				if got := s.pilotID(resource); got != want {
					t.Fatalf("pilotID = %q, Sprintf gives %q", got, want)
				}
			}
		}
	}
	for _, cores := range []int{1, 8, 64, 2048, 1 << 40, -1} {
		for _, wt := range []time.Duration{0, 500 * time.Millisecond, 90 * time.Second, 36 * time.Hour} {
			d := PilotDescription{Cores: cores, Walltime: wt}
			if got, want := newDetail(d), fmt.Sprintf("cores=%d walltime=%s", d.Cores, d.Walltime); got != want {
				t.Fatalf("newDetail = %q, Sprintf gives %q", got, want)
			}
		}
	}
}
