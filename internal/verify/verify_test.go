package verify

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

func feasibleFixture() *core.Schedule {
	inst := &core.Instance{
		M: 8,
		Jobs: []core.Job{
			{ID: 0, Procs: 4, Len: 10},
			{ID: 1, Procs: 4, Len: 10},
			{ID: 2, Procs: 8, Len: 5},
		},
		Res: []core.Reservation{{ID: 0, Procs: 4, Start: 20, Len: 5}},
	}
	s := core.NewSchedule(inst)
	s.SetStart(0, 0)
	s.SetStart(1, 0)
	s.SetStart(2, 10)
	return s
}

func TestVerifyFeasible(t *testing.T) {
	if err := Verify(feasibleFixture()); err != nil {
		t.Fatalf("feasible schedule rejected: %v", err)
	}
}

func TestCheckUnscheduled(t *testing.T) {
	s := feasibleFixture()
	s.Start[1] = core.Unscheduled
	vs := Check(s)
	if len(vs) != 1 || vs[0].Kind != VUnscheduled || vs[0].JobIdx != 1 {
		t.Fatalf("got %+v", vs)
	}
	if err := Verify(s); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Verify = %v", err)
	}
}

func TestCheckNegativeStart(t *testing.T) {
	s := feasibleFixture()
	s.Start[0] = -5
	found := false
	for _, v := range Check(s) {
		if v.Kind == VNegativeStart && v.JobIdx == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("negative start not reported")
	}
}

func TestCheckOverCapacity(t *testing.T) {
	s := feasibleFixture()
	// Move the 8-wide job onto the two 4-wide jobs.
	s.SetStart(2, 5)
	vs := Check(s)
	if len(vs) == 0 || vs[0].Kind != VOverCapacity {
		t.Fatalf("overload not detected: %+v", vs)
	}
}

func TestCheckJobVsReservationConflict(t *testing.T) {
	s := feasibleFixture()
	// The 8-wide job overlapping the 4-proc reservation at t=20.
	s.SetStart(2, 18)
	vs := Check(s)
	if len(vs) == 0 || vs[0].Kind != VOverCapacity {
		t.Fatalf("reservation conflict not detected: %+v", vs)
	}
}

func TestAssignProcessors(t *testing.T) {
	s := feasibleFixture()
	a, err := AssignProcessors(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAssignment(s, a); err != nil {
		t.Fatal(err)
	}
	// Jobs 0 and 1 overlap: their processor sets must be disjoint.
	used := map[int]bool{}
	for _, p := range a.JobProcs[0] {
		used[p] = true
	}
	for _, p := range a.JobProcs[1] {
		if used[p] {
			t.Fatalf("jobs 0 and 1 share processor %d", p)
		}
	}
	if len(a.JobProcs[2]) != 8 {
		t.Fatalf("full-width job got %d processors", len(a.JobProcs[2]))
	}
}

func TestAssignProcessorsHalfOpenBoundary(t *testing.T) {
	// A job ending exactly when another starts may reuse its processors.
	inst := &core.Instance{M: 2, Jobs: []core.Job{
		{ID: 0, Procs: 2, Len: 5},
		{ID: 1, Procs: 2, Len: 5},
	}}
	s := core.NewSchedule(inst)
	s.SetStart(0, 0)
	s.SetStart(1, 5)
	a, err := AssignProcessors(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAssignment(s, a); err != nil {
		t.Fatal(err)
	}
}

func TestAssignProcessorsDetectsOverload(t *testing.T) {
	inst := &core.Instance{M: 2, Jobs: []core.Job{
		{ID: 0, Procs: 2, Len: 5},
		{ID: 1, Procs: 1, Len: 5},
	}}
	s := core.NewSchedule(inst)
	s.SetStart(0, 0)
	s.SetStart(1, 2)
	if _, err := AssignProcessors(s); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("got %v", err)
	}
}

func TestAssignProcessorsInfiniteReservation(t *testing.T) {
	inst := &core.Instance{
		M:    4,
		Jobs: []core.Job{{ID: 0, Procs: 2, Len: 5}},
		Res:  []core.Reservation{{ID: 0, Procs: 2, Start: 0, Len: core.Infinity}},
	}
	s := core.NewSchedule(inst)
	s.SetStart(0, 0)
	a, err := AssignProcessors(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAssignment(s, a); err != nil {
		t.Fatal(err)
	}
}

func TestCheckAssignmentRejectsTampering(t *testing.T) {
	s := feasibleFixture()
	a, err := AssignProcessors(s)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate a processor inside one job's set.
	bad := *a
	bad.JobProcs = append([][]int(nil), a.JobProcs...)
	bad.JobProcs[0] = []int{0, 0, 1, 2}
	if err := checkAssignment(s, &bad); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("duplicate proc accepted: %v", err)
	}
	// Wrong processor count.
	bad.JobProcs[0] = []int{0}
	if err := checkAssignment(s, &bad); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("short assignment accepted: %v", err)
	}
	// Out-of-range processor.
	bad.JobProcs[0] = []int{0, 1, 2, 99}
	if err := checkAssignment(s, &bad); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("out-of-range proc accepted: %v", err)
	}
	// Double-booking: give job 1 the same procs as job 0 (they overlap).
	bad.JobProcs = append([][]int(nil), a.JobProcs...)
	bad.JobProcs[1] = a.JobProcs[0]
	if err := checkAssignment(s, &bad); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("double booking accepted: %v", err)
	}
}

// TestAssignmentAlwaysExistsForCapacityFeasible is the interval-colouring
// property: any schedule passing the aggregate capacity check admits a
// concrete processor assignment.
func TestAssignmentAlwaysExistsForCapacityFeasible(t *testing.T) {
	r := rng.New(555)
	for trial := 0; trial < 300; trial++ {
		m := r.IntRange(1, 10)
		inst := &core.Instance{M: m}
		n := r.IntRange(1, 12)
		s := core.NewSchedule(inst)
		// Generate random placements, keep only those that fit (rejection).
		usage := make([]int, 100)
		for i := 0; i < n; i++ {
			q := r.IntRange(1, m)
			p := core.Time(r.IntRange(1, 20))
			st := core.Time(r.Intn(60))
			fits := true
			for tm := st; tm < st+p; tm++ {
				if usage[tm]+q > m {
					fits = false
					break
				}
			}
			if !fits {
				continue
			}
			for tm := st; tm < st+p; tm++ {
				usage[tm] += q
			}
			inst.Jobs = append(inst.Jobs, core.Job{ID: len(inst.Jobs), Procs: q, Len: p})
			s.Start = append(s.Start, st)
		}
		if len(inst.Jobs) == 0 {
			continue
		}
		a, err := AssignProcessors(s)
		if err != nil {
			t.Fatalf("trial %d: capacity-feasible schedule has no assignment: %v", trial, err)
		}
		if err := checkAssignment(s, a); err != nil {
			t.Fatalf("trial %d: produced assignment invalid: %v", trial, err)
		}
	}
}

func TestViolationKindString(t *testing.T) {
	if VUnscheduled.String() != "unscheduled" ||
		VNegativeStart.String() != "negative-start" ||
		VOverCapacity.String() != "over-capacity" ||
		ViolationKind(99).String() != "unknown" {
		t.Fatal("ViolationKind.String broken")
	}
}

// checkAssignment validates that an assignment is consistent with its
// schedule: every job/reservation holds exactly its required number of
// distinct processors, and no processor is held by two overlapping
// occupations.
func checkAssignment(s *core.Schedule, a *Assignment) error {
	inst := s.Inst
	if len(a.JobProcs) != len(inst.Jobs) || len(a.ResProcs) != len(inst.Res) {
		return fmt.Errorf("%w: assignment shape mismatch", ErrInfeasible)
	}
	type hold struct {
		t0, t1 core.Time
		what   string
	}
	perProc := make(map[int][]hold)
	add := func(procs []int, q int, t0, t1 core.Time, what string) error {
		if len(procs) != q {
			return fmt.Errorf("%w: %s holds %d processors, needs %d", ErrInfeasible, what, len(procs), q)
		}
		seen := map[int]bool{}
		for _, p := range procs {
			if p < 0 || p >= inst.M {
				return fmt.Errorf("%w: %s uses invalid processor %d", ErrInfeasible, what, p)
			}
			if seen[p] {
				return fmt.Errorf("%w: %s uses processor %d twice", ErrInfeasible, what, p)
			}
			seen[p] = true
			perProc[p] = append(perProc[p], hold{t0, t1, what})
		}
		return nil
	}
	for i, j := range inst.Jobs {
		t := s.Start[i]
		if t == core.Unscheduled {
			return fmt.Errorf("%w: job %d unscheduled", ErrInfeasible, j.ID)
		}
		if err := add(a.JobProcs[i], j.Procs, t, t+j.Len, fmt.Sprintf("job %d", j.ID)); err != nil {
			return err
		}
	}
	for i, r := range inst.Res {
		if err := add(a.ResProcs[i], r.Procs, r.Start, r.End(), fmt.Sprintf("reservation %d", r.ID)); err != nil {
			return err
		}
	}
	for p, holds := range perProc {
		slices.SortFunc(holds, func(a, b hold) int { return cmp.Compare(a.t0, b.t0) })
		for i := 1; i < len(holds); i++ {
			if holds[i].t0 < holds[i-1].t1 {
				return fmt.Errorf("%w: processor %d double-booked by %s and %s",
					ErrInfeasible, p, holds[i-1].what, holds[i].what)
			}
		}
	}
	return nil
}
