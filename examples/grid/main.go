// Grid co-allocation: the paper's §1.2 motivates reservations with grid
// computing — an application spanning two remote clusters must start at the
// same instant on both, so each site books an advance reservation. This
// example plans such a co-allocation: it finds the earliest common slot
// across two clusters (each already loaded with local work), books the
// paired reservations, and shows local scheduling flowing around them.
//
// Run with: go run ./examples/grid [-backend array]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gantt"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/verify"
	"repro/internal/workload"
)

// site is one cluster participating in the co-allocation.
type site struct {
	name string
	m    int
	inst *core.Instance // local jobs (reservation added after planning)
}

func main() {
	backend := flag.String("backend", "tree",
		"capacity index: tree (internal/restree) or array (profile.Timeline, the reference); schedules are identical")
	flag.Parse()
	r := rng.New(3)
	sites := []*site{
		{name: "cluster-A", m: 16},
		{name: "cluster-B", m: 24},
	}
	for _, s := range sites {
		inst, err := workload.SyntheticInstance(r.Split(), workload.SynthConfig{
			M: s.m, N: 12, MinRun: 10, MaxRun: 120, MaxWidthFrac: 0.5,
		})
		if err != nil {
			log.Fatal(err)
		}
		inst.Name = s.name
		s.inst = inst
	}

	// The grid application needs 8 processors on each site for 60 ticks,
	// starting simultaneously. Find the earliest common start: each site
	// offers its earliest slot given EXISTING reservations only (local
	// batch jobs can be re-flowed around the booking, which is exactly
	// what advance reservation mechanisms assume); the common start is the
	// max over sites, re-validated on both.
	const needProcs, needLen = 8, core.Time(60)
	var start core.Time
	for _, s := range sites {
		tl, err := profile.IndexFromReservations(*backend, s.m, s.inst.Res)
		if err != nil {
			log.Fatal(err)
		}
		slot, ok := tl.FindSlot(0, needProcs, needLen)
		if !ok {
			log.Fatalf("%s can never host the co-allocation", s.name)
		}
		if slot > start {
			start = slot
		}
	}
	fmt.Printf("co-allocation: %d procs × %v ticks on both sites, start t=%v (backend %s)\n\n",
		needProcs, needLen, start, *backend)

	// Book the paired reservations and run each site's local scheduler.
	for _, s := range sites {
		s.inst.Res = append(s.inst.Res, core.Reservation{
			ID: len(s.inst.Res), Name: "grid-app", Procs: needProcs, Start: start, Len: needLen,
		})
		if err := s.inst.Validate(); err != nil {
			log.Fatal(err)
		}
		lsrc := &sched.LSRC{Order: sched.LPT, Backend: *backend}
		sc, err := lsrc.Schedule(s.inst)
		if err != nil {
			log.Fatal(err)
		}
		if err := verify.Verify(sc); err != nil {
			log.Fatal(err)
		}
		alpha, ok := s.inst.Alpha()
		fmt.Printf("%s: m=%d, local makespan %v, α=%.2f (α-instance: %v)\n",
			s.name, s.m, sc.Makespan(), alpha, ok)
		chart, err := gantt.ASCII(sc, 76)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(chart)
	}
	fmt.Println("both sites hold 8 processors over the same window — the grid job can")
	fmt.Println("start simultaneously everywhere, which is the reservation feature's purpose.")
}
