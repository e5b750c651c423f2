package saga

import (
	"testing"
	"time"

	"aimes/internal/batch"
	"aimes/internal/sim"
	"aimes/internal/site"
)

// TestRealTimeSyncReentrant verifies that Sync'd entry points may be called
// from inside engine callbacks without deadlocking — the pattern adaptors
// hit when a state callback submits a follow-up job.
func TestRealTimeSyncReentrant(t *testing.T) {
	eng := sim.NewRealTime()
	s, err := site.New(eng, site.Config{
		Name: "fast", Nodes: 2, CoresPerNode: 1, Architecture: "beowulf",
		WaitModel:     batch.WaitModel{MedianWait: time.Millisecond, Sigma: 0.1, MinWait: time.Millisecond, MaxWait: 5 * time.Millisecond},
		SubmitLatency: time.Millisecond,
		BandwidthMBps: 1000, NetLatency: time.Millisecond,
	}, sim.NewRNG(1).Child("site"))
	if err != nil {
		t.Fatal(err)
	}
	a := NewBatchAdaptor(eng, s)

	done := make(chan struct{})
	_, err = a.Submit(Description{
		Executable: "first", Cores: 1, Walltime: time.Minute, Runtime: time.Millisecond,
	}, func(_ Job, s State) {
		if s != Done {
			return
		}
		// Submit from within a callback: Sync must run inline.
		_, err := a.Submit(Description{
			Executable: "second", Cores: 1, Walltime: time.Minute, Runtime: time.Millisecond,
		}, func(_ Job, s State) {
			if s == Done {
				close(done)
			}
		})
		if err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("chained submission did not complete (Sync deadlock?)")
	}
}
