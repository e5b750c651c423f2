package shard

import "testing"

func TestStealerVictimPicksMostQueued(t *testing.T) {
	s := NewStealer(4)
	if v := s.Victim(-1); v != -1 {
		t.Fatalf("empty stealer victim = %d, want -1", v)
	}
	s.NoteQueued(1, 3)
	s.NoteQueued(3, 5)
	if v := s.Victim(-1); v != 3 {
		t.Fatalf("victim = %d, want 3", v)
	}
	if v := s.Victim(3); v != 1 {
		t.Fatalf("victim excluding 3 = %d, want 1", v)
	}
	s.NoteQueued(3, -5)
	s.NoteQueued(1, -3)
	if v := s.Victim(-1); v != -1 {
		t.Fatalf("drained stealer victim = %d, want -1", v)
	}
}

func TestStealerSealing(t *testing.T) {
	s := NewStealer(3)
	for k := 0; k < 3; k++ {
		if s.Sealed(k) {
			t.Fatalf("shard %d sealed at birth", k)
		}
	}
	s.Seal(1)
	if !s.Sealed(1) || s.Sealed(0) || s.Sealed(2) {
		t.Fatal("Seal(1) leaked to other shards or did not stick")
	}
}

func TestStealerCounters(t *testing.T) {
	s := NewStealer(2)
	s.CountMigration()
	s.CountMigration()
	s.CountForeignPump()
	if s.Migrations() != 2 || s.ForeignPumps() != 1 {
		t.Fatalf("counters = %d migrations, %d pumps", s.Migrations(), s.ForeignPumps())
	}
}

func TestNewStealerPanicsOnZeroShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewStealer(0) did not panic")
		}
	}()
	NewStealer(0)
}
