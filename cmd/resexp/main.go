// Command resexp runs the registered experiments that regenerate the
// paper's figures and claims (resexp -list prints the registry, one ID
// and title per line), and prints paper-style tables with pass/fail
// checks; -md writes the same reports as one markdown document.
//
// Usage:
//
//	resexp -list
//	resexp -run fig3
//	resexp -run all [-quick] [-seed 7] [-svgdir out/] [-md results.md]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/expt"
)

func run() error {
	list := flag.Bool("list", false, "list experiments")
	runID := flag.String("run", "", "experiment id, or 'all'")
	quick := flag.Bool("quick", false, "reduced grids (fast)")
	seed := flag.Uint64("seed", 20070326, "experiment seed")
	workers := flag.Int("workers", 0, "sweep parallelism (0 = GOMAXPROCS)")
	svgDir := flag.String("svgdir", "", "write experiment charts as SVG files here")
	mdPath := flag.String("md", "", "write the reports as a markdown document here")
	flag.Parse()

	if *list {
		fmt.Println("available experiments:")
		for _, e := range expt.List() {
			fmt.Printf("  %-9s %s\n            %s\n", e.ID, e.Title, e.Paper)
		}
		return nil
	}
	if *runID == "" {
		return fmt.Errorf("pass -list or -run <id|all>")
	}
	cfg := expt.Config{Seed: *seed, Quick: *quick, Workers: *workers}

	var reports []*expt.Report
	if *runID == "all" {
		rs, err := expt.RunAll(cfg)
		if err != nil {
			return err
		}
		reports = rs
	} else {
		e, ok := expt.Get(*runID)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *runID)
		}
		r, err := e.Run(cfg)
		if err != nil {
			return err
		}
		reports = append(reports, r)
	}

	failed := 0
	for _, r := range reports {
		fmt.Println(r.Render())
		if !r.AllPassed() {
			failed++
		}
		if *svgDir != "" {
			for ci, c := range r.Charts {
				path := filepath.Join(*svgDir, fmt.Sprintf("%s-%d.svg", r.ID, ci))
				if err := os.WriteFile(path, []byte(c.SVG(720, 480)), 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", path)
			}
		}
	}
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(expt.MarkdownAll(reports, cfg)), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *mdPath)
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) had failing checks", failed)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "resexp:", err)
		os.Exit(1)
	}
}
