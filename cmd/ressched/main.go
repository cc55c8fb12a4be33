// Command ressched schedules a RESASCHEDULING instance (JSON) with a chosen
// algorithm, verifies the result, and prints the schedule, metrics and an
// optional Gantt chart.
//
// Usage:
//
//	ressched -alg lsrc-lpt -in instance.json [-backend array] [-gantt] [-svg out.svg] [-out sched.json] [-exact]
//
// Algorithms: lsrc-fifo, lsrc-lpt, lsrc-spt, lsrc-widest, lsrc-narrowest,
// lsrc-maxwork, fcfs, cons-bf, easy-bf, shelf-nfdh, shelf-ffdh.
//
// Backends: tree (64-slot leaves under a sorted directory, the default)
// and array (the flat sorted-array timeline, kept as the reference: as
// fast on the smallest instances, 4× slower at 100 reservations and
// falling behind from there). Both produce identical schedules, which
// is what running the same instance under each is for.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gantt"
	"repro/internal/lower"
	"repro/internal/sched"
	"repro/internal/verify"
)

func run() error {
	alg := flag.String("alg", "lsrc-fifo", "scheduling algorithm")
	backend := flag.String("backend", "tree", "capacity index: tree (internal/restree) or array (profile.Timeline, the reference); schedules are identical")
	in := flag.String("in", "", "instance JSON file (required)")
	out := flag.String("out", "", "write the schedule JSON here")
	showGantt := flag.Bool("gantt", false, "print an ASCII Gantt chart")
	svgPath := flag.String("svg", "", "write an SVG Gantt chart here")
	doExact := flag.Bool("exact", false, "also compute the exact optimum (small instances)")
	width := flag.Int("width", 90, "ASCII Gantt width")
	flag.Parse()

	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	inst, err := core.ReadInstanceJSON(f)
	if err != nil {
		return err
	}
	sc, err := sched.ByNameOn(*alg, *backend)
	if err != nil {
		return err
	}
	s, err := sc.Schedule(inst)
	if err != nil {
		return err
	}
	if err := verify.Verify(s); err != nil {
		return fmt.Errorf("produced schedule failed verification: %w", err)
	}

	lb := lower.Compute(inst)
	fmt.Printf("instance: %s  m=%d  jobs=%d  reservations=%d\n",
		inst.Name, inst.M, len(inst.Jobs), len(inst.Res))
	fmt.Printf("algorithm: %s (backend %s)\n", sc.Name(), *backend)
	fmt.Printf("makespan:  %v\n", s.Makespan())
	fmt.Printf("lower bound on C*max: %v (area %v, job-fit %v, tall %v)\n",
		lb.Best, lb.Area, lb.JobFit, lb.Tall)
	fmt.Printf("ratio vs lower bound: %.4f\n", lower.Ratio(s.Makespan(), lb.Best))

	if *doExact {
		res, err := exact.Solve(inst)
		if err != nil {
			fmt.Printf("exact: %v (result is still an upper bound)\n", err)
		}
		if res != nil {
			fmt.Printf("exact C*max: %v (optimal=%v, %d states)\n", res.Cmax, res.Optimal, res.Nodes)
			fmt.Printf("true ratio: %.4f\n", lower.Ratio(s.Makespan(), res.Cmax))
		}
	}
	if *showGantt {
		chart, err := gantt.ASCII(s, *width)
		if err != nil {
			return err
		}
		fmt.Println(chart)
	}
	if *svgPath != "" {
		svg, err := gantt.SVG(s, 900, 14)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*svgPath, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *svgPath)
	}
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer of.Close()
		if err := s.WriteJSON(of); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ressched:", err)
		os.Exit(1)
	}
}
