package sched

import (
	"testing"

	"repro/internal/core"
	"repro/internal/verify"
)

func TestShelfNFDHSimple(t *testing.T) {
	inst := &core.Instance{M: 4, Jobs: []core.Job{
		{ID: 0, Procs: 2, Len: 10},
		{ID: 1, Procs: 2, Len: 8},
		{ID: 2, Procs: 2, Len: 6},
		{ID: 3, Procs: 2, Len: 4},
	}}
	s, err := (&Shelf{}).Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Verify(s); err != nil {
		t.Fatal(err)
	}
	// Sorted by decreasing length: shelf 1 = {0,1} height 10, shelf 2 =
	// {2,3} height 6 -> makespan 16.
	if s.StartOf(0) != 0 || s.StartOf(1) != 0 {
		t.Fatalf("first shelf starts = %v %v", s.StartOf(0), s.StartOf(1))
	}
	if s.StartOf(2) != 10 || s.StartOf(3) != 10 {
		t.Fatalf("second shelf starts = %v %v", s.StartOf(2), s.StartOf(3))
	}
	if s.Makespan() != 16 {
		t.Fatalf("makespan = %v, want 16", s.Makespan())
	}
}

func TestShelfFFDHBeatsNFDHWhenGapRemains(t *testing.T) {
	// NFDH closes a shelf as soon as one job fails to fit; FFDH can stack
	// the narrow job back onto the first shelf.
	inst := &core.Instance{M: 4, Jobs: []core.Job{
		{ID: 0, Procs: 2, Len: 10},
		{ID: 1, Procs: 3, Len: 8}, // does not fit beside 0: opens shelf 2
		{ID: 2, Procs: 2, Len: 6}, // FFDH: back onto shelf 1; NFDH: shelf 3
	}}
	nfdh, err := (&Shelf{Fit: NextFit}).Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	ffdh, err := (&Shelf{Fit: FirstFit}).Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Verify(nfdh); err != nil {
		t.Fatal(err)
	}
	if err := verify.Verify(ffdh); err != nil {
		t.Fatal(err)
	}
	if nfdh.Makespan() != 24 { // 10 + 8 + 6
		t.Fatalf("NFDH makespan = %v, want 24", nfdh.Makespan())
	}
	if ffdh.Makespan() != 18 { // shelf1 {0,2} h10, shelf2 {1} h8
		t.Fatalf("FFDH makespan = %v, want 18", ffdh.Makespan())
	}
}

func TestShelfAroundReservation(t *testing.T) {
	inst := &core.Instance{
		M: 4,
		Jobs: []core.Job{
			{ID: 0, Procs: 4, Len: 5},
			{ID: 1, Procs: 4, Len: 3},
		},
		Res: []core.Reservation{{ID: 0, Procs: 4, Start: 5, Len: 5}},
	}
	s, err := (&Shelf{}).Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Verify(s); err != nil {
		t.Fatal(err)
	}
	// Shelf 1 (job 0) fits exactly in [0,5); shelf 2 must wait out the
	// reservation.
	if s.StartOf(0) != 0 || s.StartOf(1) != 10 {
		t.Fatalf("starts = %v", s.Start)
	}
}

func TestShelfEmpty(t *testing.T) {
	s, err := (&Shelf{}).Schedule(&core.Instance{M: 3})
	if err != nil || s.Makespan() != 0 {
		t.Fatalf("empty shelf schedule: %v %v", s, err)
	}
}
