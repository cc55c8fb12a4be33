package sched_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
)

// ExampleLSRC schedules two jobs around an advance reservation: the wide
// job cannot overlap the reservation window, the thin one backfills.
func ExampleLSRC() {
	inst := &core.Instance{
		M: 4,
		Jobs: []core.Job{
			{ID: 0, Procs: 3, Len: 10},
			{ID: 1, Procs: 1, Len: 3},
		},
		Res: []core.Reservation{{ID: 0, Procs: 2, Start: 5, Len: 5}},
	}
	s, err := sched.NewLSRC(sched.FIFO).Schedule(inst)
	if err != nil {
		panic(err)
	}
	fmt.Println("wide job starts:", s.StartOf(0))
	fmt.Println("thin job starts:", s.StartOf(1))
	fmt.Println("makespan:", s.Makespan())
	// Output:
	// wide job starts: 10
	// thin job starts: 0
	// makespan: 20
}

// ExampleOrder shows priority rules changing the schedule: LPT repairs the
// FIFO worst case of Proposition 2 (k=3 member).
func ExampleOrder() {
	inst := &core.Instance{
		M: 18,
		Jobs: []core.Job{
			{ID: 0, Procs: 4, Len: 1}, {ID: 1, Procs: 4, Len: 1}, {ID: 2, Procs: 4, Len: 1},
			{ID: 3, Procs: 7, Len: 3}, {ID: 4, Procs: 7, Len: 3},
		},
		Res: []core.Reservation{{ID: 0, Procs: 6, Start: 3, Len: 18}},
	}
	fifo, _ := sched.NewLSRC(sched.FIFO).Schedule(inst)
	lpt, _ := sched.NewLSRC(sched.LPT).Schedule(inst)
	fmt.Println("FIFO:", fifo.Makespan(), "LPT:", lpt.Makespan())
	// Output:
	// FIFO: 7 LPT: 3
}

// ExampleByNameOn resolves algorithms the way the CLIs do.
func ExampleByNameOn() {
	sc, err := sched.ByNameOn("easy-bf", "")
	if err != nil {
		panic(err)
	}
	fmt.Println(sc.Name())
	// Output:
	// easy-bf
}
