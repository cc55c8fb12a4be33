// Adversarial gallery: materialise the paper's worst-case families and
// measure exactly the ratios the theory predicts —
//
//  1. Proposition 2's family (Figure 3): LSRC ratio = 2/α - 1 + α/2;
//  2. the Theorem 1 reduction: a fixed instance whose LSRC-LPT ratio grows
//     without bound as the hypothetical guarantee ρ grows;
//  3. the §2.2 FCFS family: FCFS ratio approaching m while LSRC is optimal.
//
// Run with: go run ./examples/adversarial
package main

import (
	"fmt"
	"log"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gantt"
	"repro/internal/instances"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/threepart"
)

func main() {
	prop2()
	theorem1()
	fcfs()
}

func prop2() {
	fmt.Println("— Proposition 2 family (Figure 3) —")
	t := stats.NewTable("k", "alpha", "m", "C*", "LSRC-FIFO", "ratio", "2/α-1+α/2", "LSRC-LPT")
	for _, k := range []int{3, 4, 6, 8} {
		inst, err := instances.Prop2Instance(k)
		if err != nil {
			log.Fatal(err)
		}
		fifo, err := sched.NewLSRC(sched.FIFO).Schedule(inst)
		if err != nil {
			log.Fatal(err)
		}
		lpt, err := sched.NewLSRC(sched.LPT).Schedule(inst)
		if err != nil {
			log.Fatal(err)
		}
		opt := instances.Prop2Optimum(k)
		alpha := instances.Prop2Alpha(k)
		t.AddRow(k, fmt.Sprintf("%.3f", alpha), inst.M, int64(opt), int64(fifo.Makespan()),
			fmt.Sprintf("%.4f", float64(fifo.Makespan())/float64(opt)),
			fmt.Sprintf("%.4f", bounds.Prop2(alpha)),
			int64(lpt.Makespan()))
	}
	fmt.Println(t)
	fmt.Println("k=6 is the paper's Figure 3: m=180, C*=6, LSRC=31. LPT defuses the family.")

	// Draw the k=3 member small enough to read.
	inst, _ := instances.Prop2Instance(3)
	s, _ := sched.NewLSRC(sched.FIFO).Schedule(inst)
	chart, err := gantt.ASCII(s, 72)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(chart)
}

func theorem1() {
	fmt.Println("— Theorem 1 reduction (Figure 1) —")
	tp := &threepart.Instance{Items: []int64{12, 10, 10, 10, 9, 9}, B: 30}
	t := stats.NewTable("rho", "C* (exact)", "wall", "LSRC-LPT", "ratio")
	for _, rho := range []int{1, 2, 4, 8} {
		inst, err := instances.FromThreePartition(tp, rho)
		if err != nil {
			log.Fatal(err)
		}
		res, err := exact.Solve(inst)
		if err != nil {
			log.Fatal(err)
		}
		s, err := sched.NewLSRC(sched.LPT).Schedule(inst)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(rho, int64(res.Cmax), int64(instances.Theorem1Wall(tp, rho)),
			int64(s.Makespan()),
			fmt.Sprintf("%.2f", float64(s.Makespan())/float64(res.Cmax)))
	}
	fmt.Println(t)
	fmt.Println("the ratio exceeds every hypothetical guarantee ρ: no finite guarantee exists.")
	fmt.Println()
}

func fcfs() {
	fmt.Println("— §2.2 FCFS pathological family —")
	t := stats.NewTable("m", "D", "C*", "FCFS", "LSRC", "FCFS ratio")
	for _, m := range []int{4, 8} {
		for _, d := range []core.Time{100, 1000} {
			inst, err := instances.FCFSPathological(m, d)
			if err != nil {
				log.Fatal(err)
			}
			fs, err := (sched.FCFS{}).Schedule(inst)
			if err != nil {
				log.Fatal(err)
			}
			ls, err := sched.NewLSRC(sched.FIFO).Schedule(inst)
			if err != nil {
				log.Fatal(err)
			}
			opt := instances.FCFSPathologicalOptimum(m, d)
			t.AddRow(m, int64(d), int64(opt), int64(fs.Makespan()), int64(ls.Makespan()),
				fmt.Sprintf("%.3f", float64(fs.Makespan())/float64(opt)))
		}
	}
	fmt.Println(t)
	fmt.Println("as D grows the FCFS ratio approaches m; LSRC stays exactly optimal.")
}
