// Quickstart: build a small cluster instance with an advance reservation,
// schedule it with list scheduling (LSRC), verify feasibility, and print an
// ASCII Gantt chart plus the relevant performance guarantee.
//
// Run with: go run ./examples/quickstart [-backend array]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/gantt"
	"repro/internal/lower"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/verify"
)

func main() {
	backend := flag.String("backend", "tree",
		"capacity index: tree (internal/restree) or array (profile.Timeline, the reference); schedules are identical")
	flag.Parse()
	// A 8-processor cluster. One afternoon reservation holds 3 processors
	// for a demo (the §1.2 motivation), and six jobs are queued.
	inst := &core.Instance{
		Name: "quickstart",
		M:    8,
		Jobs: []core.Job{
			{ID: 0, Name: "cfd", Procs: 4, Len: 20},
			{ID: 1, Name: "render", Procs: 2, Len: 35},
			{ID: 2, Name: "mcmc", Procs: 1, Len: 50},
			{ID: 3, Name: "fft", Procs: 5, Len: 8},
			{ID: 4, Name: "blast", Procs: 3, Len: 15},
			{ID: 5, Name: "tiny", Procs: 1, Len: 5},
		},
		Res: []core.Reservation{
			{ID: 0, Name: "demo", Procs: 3, Start: 30, Len: 20},
		},
	}
	if err := inst.Validate(); err != nil {
		log.Fatal(err)
	}

	// The α of this instance (availability never drops below α·m and no
	// job is wider than α·m) gives LSRC's provable guarantee.
	alpha, ok := inst.Alpha()
	fmt.Printf("instance α = %.3f (valid α-instance: %v)\n", alpha, ok)
	if ok {
		fmt.Printf("LSRC guarantee (Proposition 3): Cmax <= %.2f × C*max\n", bounds.AlphaUpper(alpha))
	}

	sc, err := sched.ByNameOn("lsrc-lpt", *backend)
	if err != nil {
		log.Fatal(err)
	}
	s, err := sc.Schedule(inst)
	if err != nil {
		log.Fatal(err)
	}
	if err := verify.Verify(s); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncapacity backend: %s (of %v; both give identical schedules)\n",
		*backend, profile.Backends())

	lb := lower.Best(inst)
	fmt.Printf("\nalgorithm: %s\nmakespan:  %v\nC*max lower bound: %v  (ratio <= %.3f)\n\n",
		s.Algorithm, s.Makespan(), lb, lower.Ratio(s.Makespan(), lb))

	chart, err := gantt.ASCII(s, 80)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(chart)
}
