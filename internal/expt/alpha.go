package expt

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/exact"
	"repro/internal/instances"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "alpha",
		Title: "Proposition 3: empirical ratio vs 2/alpha",
		Paper: "Proposition 3 — LSRC <= (2/α)·C*max on α-RESASCHEDULING",
		Run:   runAlpha,
	})
}

func runAlpha(cfg Config) (*Report, error) {
	r := &Report{
		ID:    "alpha",
		Title: "Proposition 3: empirical ratio vs 2/alpha",
		Paper: "Proposition 3",
	}
	r.Notes = append(r.Notes,
		"instances: random α-restricted jobs + rejected-sampling reservation streams",
		"reference: exact branch-and-bound optimum (all instances solved to optimality)")

	alphas := []float64{0.25, 0.4, 0.5, 0.65, 0.8, 1.0}
	trialsPer := 120
	if cfg.Quick {
		alphas = []float64{0.5, 1.0}
		trialsPer = 15
	}
	// An instance drawn at α is only α′-restricted, α′ = inst.Alpha(), and
	// α′ < α when α·m is not an integer: Proposition 3 promises 2/α′. A
	// cell keeps its smallest α′ and whether every ratio met its own bound.
	type cell struct {
		alpha, minAlpha float64
		ratios          []float64
		within          bool
		err             error
	}
	cells := parMap(cfg, len(alphas), func(ai int) cell {
		alpha := alphas[ai]
		c := cell{alpha: alpha, minAlpha: 1, within: true}
		for tr := 0; tr < trialsPer; tr++ {
			rr := rng.NewStream(cfg.Seed^0xA1FA, uint64(ai*10000+tr)+1)
			m := rr.IntRange(4, 8)
			inst := instances.RandomAlpha(rr, instances.AlphaConfig{
				M: m, N: rr.IntRange(2, 6), Alpha: alpha,
				MaxLen: 8, NRes: rr.IntRange(1, 4), Horizon: 30,
			})
			res, err := exact.Solve(inst)
			if err != nil {
				c.err = fmt.Errorf("alpha %.2f trial %d: %w", alpha, tr, err)
				return c
			}
			if !res.Optimal {
				c.err = fmt.Errorf("alpha %.2f trial %d: not optimal", alpha, tr)
				return c
			}
			if res.Cmax == 0 {
				continue
			}
			s, err := sched.NewLSRC(sched.FIFO).Schedule(inst)
			if err != nil {
				c.err = err
				return c
			}
			ratio := float64(s.Makespan()) / float64(res.Cmax)
			a, ok := inst.Alpha()
			c.within = c.within && ok && ratio <= bounds.AlphaUpper(a)+1e-9
			c.minAlpha = min(c.minAlpha, a)
			c.ratios = append(c.ratios, ratio)
		}
		return c
	})

	t := stats.NewTable("alpha", "min alpha'", "trials", "mean ratio", "max ratio", "B2(alpha)", "upper 2/alpha'", "within")
	allBelow := true
	for _, c := range cells {
		if c.err != nil {
			return nil, c.err
		}
		sum := stats.Summarize(c.ratios)
		allBelow = allBelow && c.within
		t.AddRow(c.alpha, c.minAlpha, sum.N, sum.Mean, sum.Max, bounds.B2(c.alpha), bounds.AlphaUpper(c.minAlpha), c.within)
	}
	r.Tables = append(r.Tables, NamedTable{
		Caption: "LSRC ratio vs exact optimum across the α grid (α′ = inst.Alpha(): below α when α·m is not an integer)",
		Table:   t,
	})
	r.check("every instance is α′-restricted and within its 2/α′ guarantee", allBelow, "α grid %v, %d trials each", alphas, trialsPer)
	r.check("guarantee at α=1/2 is 4 (§4.2)", bounds.AlphaUpper(0.5) == 4, "2/0.5 = %v", bounds.AlphaUpper(0.5))
	return r, nil
}
