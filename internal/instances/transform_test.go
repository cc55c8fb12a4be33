package instances

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/verify"
)

func staircaseFixture() *core.Instance {
	// U: 5 on [0,4), 2 on [4,10), 0 after — non-increasing.
	return &core.Instance{
		M: 8,
		Jobs: []core.Job{
			{ID: 0, Procs: 3, Len: 6},
			{ID: 1, Procs: 2, Len: 4},
			{ID: 2, Procs: 8, Len: 2},
		},
		Res: []core.Reservation{
			{ID: 0, Procs: 3, Start: 0, Len: 4},
			{ID: 1, Procs: 2, Start: 0, Len: 10},
		},
	}
}

func TestReservationsToTasksShape(t *testing.T) {
	inst := staircaseFixture()
	out, err := ReservationsToTasks(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(out.Res) != 0 {
		t.Fatal("transformed instance still has reservations")
	}
	// Two staircase tasks: (q=3, p=4) and (q=2, p=10).
	if len(out.Jobs) != 5 {
		t.Fatalf("jobs = %d, want 5", len(out.Jobs))
	}
	if out.Jobs[0].Procs != 3 || out.Jobs[0].Len != 4 {
		t.Fatalf("staircase 0 = %+v", out.Jobs[0])
	}
	if out.Jobs[1].Procs != 2 || out.Jobs[1].Len != 10 {
		t.Fatalf("staircase 1 = %+v", out.Jobs[1])
	}
	if got := StaircaseCount(inst); got != 2 {
		t.Fatalf("StaircaseCount = %d", got)
	}
}

func TestReservationsToTasksPreservesLSRC(t *testing.T) {
	// The whole point of the transformation: LSRC produces the same
	// schedule (same makespan, same start for every original job) when the
	// staircase tasks head the list.
	r := rng.New(404)
	for trial := 0; trial < 100; trial++ {
		inst := RandomStaircase(r, StaircaseConfig{
			M: r.IntRange(2, 10), N: r.IntRange(1, 10),
			MaxLen: 12, Steps: r.IntRange(0, 3), MaxStepLen: 15,
		})
		if err := inst.Validate(); err != nil {
			t.Fatal(err)
		}
		orig, err := sched.NewLSRC(sched.FIFO).Schedule(inst)
		if err != nil {
			t.Fatal(err)
		}
		trans, err := ReservationsToTasks(inst)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := sched.NewLSRC(sched.FIFO).Schedule(trans)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.Verify(ts); err != nil {
			t.Fatal(err)
		}
		// Staircase tasks occupy the first StaircaseCount positions and
		// must all start at 0.
		sc := StaircaseCount(inst)
		for i := 0; i < sc; i++ {
			if ts.StartOf(i) != 0 {
				t.Fatalf("trial %d: staircase task %d starts at %v", trial, i, ts.StartOf(i))
			}
		}
		for i := range inst.Jobs {
			if orig.StartOf(i) != ts.StartOf(sc+i) {
				t.Fatalf("trial %d: job %d starts at %v with reservations but %v transformed\ninstance: %+v",
					trial, i, orig.StartOf(i), ts.StartOf(sc+i), inst)
			}
		}
	}
}

func TestReservationsToTasksRejectsIncreasing(t *testing.T) {
	inst := &core.Instance{
		M:    4,
		Jobs: []core.Job{{ID: 0, Procs: 1, Len: 1}},
		Res:  []core.Reservation{{ID: 0, Procs: 2, Start: 5, Len: 5}},
	}
	if _, err := ReservationsToTasks(inst); !errors.Is(err, ErrNotNonIncreasing) {
		t.Fatalf("got %v", err)
	}
}

func TestReservationsToTasksRejectsUnbounded(t *testing.T) {
	inst := &core.Instance{
		M:    4,
		Jobs: []core.Job{{ID: 0, Procs: 1, Len: 1}},
		Res:  []core.Reservation{{ID: 0, Procs: 2, Start: 0, Len: core.Infinity}},
	}
	if _, err := ReservationsToTasks(inst); !errors.Is(err, ErrUnboundedReservation) {
		t.Fatalf("got %v", err)
	}
}

func TestReservationsToTasksNoReservations(t *testing.T) {
	inst := &core.Instance{M: 4, Jobs: []core.Job{{ID: 3, Procs: 1, Len: 2}}}
	out, err := ReservationsToTasks(inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 1 || out.Jobs[0].ID != 3 {
		t.Fatalf("no-op transform wrong: %+v", out.Jobs)
	}
}

func TestMachinesAtTime(t *testing.T) {
	inst := staircaseFixture()
	cases := []struct {
		t    core.Time
		want int
	}{{0, 3}, {3, 3}, {4, 6}, {9, 6}, {10, 8}}
	for _, c := range cases {
		if got := MachinesAtTime(inst, c.t); got != c.want {
			t.Errorf("m(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestRandomGeneratorsProduceValidInstances(t *testing.T) {
	r := rng.New(515)
	for trial := 0; trial < 50; trial++ {
		rigid := RandomRigid(r, RigidConfig{M: r.IntRange(1, 32), N: r.IntRange(0, 20), MaxLen: 50})
		if err := rigid.Validate(); err != nil {
			t.Fatalf("rigid: %v", err)
		}
		p2 := RandomRigid(r, RigidConfig{M: 16, N: 10, MaxLen: 10, PowerOfTwo: true})
		if err := p2.Validate(); err != nil {
			t.Fatalf("pow2: %v", err)
		}
		alpha := RandomAlpha(r, AlphaConfig{
			M: r.IntRange(2, 32), N: r.IntRange(1, 15), Alpha: 0.5,
			MaxLen: 20, NRes: 5, Horizon: 60,
		})
		if err := alpha.Validate(); err != nil {
			t.Fatalf("alpha: %v", err)
		}
		stair := RandomStaircase(r, StaircaseConfig{
			M: r.IntRange(2, 16), N: r.IntRange(1, 10), MaxLen: 20,
			Steps: r.IntRange(0, 4), MaxStepLen: 20,
		})
		if err := stair.Validate(); err != nil {
			t.Fatalf("stair: %v", err)
		}
		if !stair.Unavailability().NonIncreasing() {
			t.Fatal("staircase not non-increasing")
		}
	}
}

func TestRandomAlphaRespectsAlpha(t *testing.T) {
	r := rng.New(616)
	for trial := 0; trial < 40; trial++ {
		m := r.IntRange(4, 40)
		a := []float64{0.25, 0.5, 0.75, 1.0}[r.Intn(4)]
		inst := RandomAlpha(r, AlphaConfig{
			M: m, N: 10, Alpha: a, MaxLen: 20, NRes: 8, Horizon: 80,
		})
		maxQ := int(a * float64(m))
		if maxQ < 1 {
			maxQ = 1
		}
		for _, j := range inst.Jobs {
			if j.Procs > maxQ {
				t.Fatalf("job width %d exceeds αm=%d", j.Procs, maxQ)
			}
		}
		if u := inst.Unavailability().Max(); u > m-maxQ {
			t.Fatalf("unavailability %d exceeds (1-α)m=%d", u, m-maxQ)
		}
	}
}

func TestPowerOfTwoWidthsWithinRange(t *testing.T) {
	r := rng.New(717)
	inst := RandomRigid(r, RigidConfig{M: 64, N: 500, MaxLen: 10, maxProcs: 32, PowerOfTwo: true})
	for _, j := range inst.Jobs {
		if j.Procs < 1 || j.Procs > 32 {
			t.Fatalf("width %d out of [1,32]", j.Procs)
		}
	}
}
