package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/instances"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/threepart"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Theorem 1: inapproximability via 3-PARTITION",
		Paper: "Theorem 1 / Figure 1 — no polynomial algorithm has a finite performance ratio",
		Run:   runFig1,
	})
}

// fig1HardInstance is a fixed 3-PARTITION YES instance on which LSRC with
// the LPT list provably wastes window space: packing {12,10,10,10,9,9}
// (B=30) largest-first puts 12+10 in the first window (8 ticks wasted), so
// one item must jump the final reservation wall.
func fig1HardInstance() *threepart.Instance {
	return &threepart.Instance{Items: []int64{12, 10, 10, 10, 9, 9}, B: 30}
}

func runFig1(cfg Config) (*Report, error) {
	r := &Report{
		ID:    "fig1",
		Title: "Theorem 1: inapproximability via 3-PARTITION",
		Paper: "Theorem 1 / Figure 1",
	}
	r.Notes = append(r.Notes,
		"reduction: m=1, one unit job per item, k unit reservations spaced B apart, last reservation of length rho*k(B+1)+1",
		"reference optimum: exact merged-state search (internal/exact.Solve), at m=1 the subset DP over the completion frontier")

	// Part 1: on a fixed YES instance, the ratio of LSRC-LPT grows without
	// bound as the hypothetical guarantee rho grows — the mechanism of the
	// impossibility proof.
	tp := fig1HardInstance()
	rhos := []int{1, 2, 4, 8}
	if cfg.Quick {
		rhos = []int{1, 2}
	}
	t1 := stats.NewTable("rho", "opt(C*)", "wall", "LSRC-LPT Cmax", "ratio", "ratio>rho")
	growing := true
	prevRatio := 0.0
	exceedsRho := true
	for _, rho := range rhos {
		inst, err := instances.FromThreePartition(tp, rho)
		if err != nil {
			return nil, err
		}
		res, err := exact.Solve(inst)
		if err != nil {
			return nil, err
		}
		opt := res.Cmax
		if want := instances.Theorem1Optimum(tp); opt != want {
			return nil, fmt.Errorf("fig1: exact optimum %v, expected %v", opt, want)
		}
		s, err := sched.NewLSRC(sched.LPT).Schedule(inst)
		if err != nil {
			return nil, err
		}
		ratio := float64(s.Makespan()) / float64(opt)
		wall := instances.Theorem1Wall(tp, rho)
		t1.AddRow(rho, opt, wall, s.Makespan(), ratio, ratio > float64(rho))
		if ratio <= prevRatio {
			growing = false
		}
		if ratio <= float64(rho) {
			exceedsRho = false
		}
		prevRatio = ratio
	}
	r.Tables = append(r.Tables, NamedTable{
		Caption: "LSRC-LPT on the fixed hard instance (items {12,10,10,10,9,9}, B=30, k=2)",
		Table:   t1,
	})
	r.check("ratio grows without bound in rho", growing, "ratios strictly increase across rho grid, last=%.2f", prevRatio)
	r.check("each run violates its hypothetical guarantee rho", exceedsRho,
		"every rho in %v gives ratio > rho", rhos)

	// Part 2: the dichotomy the proof uses — every LSRC run on a YES
	// instance either achieves the optimum exactly or lands past the wall
	// (the k windows have zero slack).
	nTrials := 30
	if cfg.Quick {
		nTrials = 6
	}
	type outcome struct {
		opt, wall, cmax core.Time
		optHit          bool
		err             error
	}
	outs := parMap(cfg, nTrials, func(i int) outcome {
		rr := rng.NewStream(cfg.Seed, uint64(i)+1)
		tpi := threepart.GenerateYes(rr, 2+i%2, int64(24+4*(i%5)))
		const rho = 2
		inst, err := instances.FromThreePartition(tpi, rho)
		if err != nil {
			return outcome{err: err}
		}
		opt := instances.Theorem1Optimum(tpi)
		wall := instances.Theorem1Wall(tpi, rho)
		orders := []sched.Order{sched.FIFO, sched.LPT, sched.SPT, sched.RandomOrder(uint64(i))}
		var worst core.Time
		hit := false
		for _, o := range orders {
			s, err := sched.NewLSRC(o).Schedule(inst)
			if err != nil {
				return outcome{err: err}
			}
			c := s.Makespan()
			if c == opt {
				hit = true
			}
			if c > worst {
				worst = c
			}
		}
		return outcome{opt: opt, wall: wall, cmax: worst, optHit: hit}
	})
	dichotomy := true
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		if o.cmax != o.opt && o.cmax < o.wall {
			dichotomy = false
		}
	}
	r.check("dichotomy: every list order is optimal or past the wall", dichotomy,
		"%d random YES instances × 4 orders", nTrials)

	// Part 3: LSRC with the witness order (jobs listed group by group)
	// recovers the optimum — scheduling *can* decide 3-PARTITION.
	groups, ok := tp.Solve()
	if !ok {
		return nil, fmt.Errorf("fig1: hard instance unexpectedly unsolvable")
	}
	inst, err := instances.FromThreePartition(tp, 2)
	if err != nil {
		return nil, err
	}
	witnessOrder := sched.Order{Name: "witness", Indices: func(*core.Instance) []int {
		var idx []int
		for _, g := range groups {
			idx = append(idx, g[0], g[1], g[2])
		}
		return idx
	}}
	ws, err := sched.NewLSRC(witnessOrder).Schedule(inst)
	if err != nil {
		return nil, err
	}
	r.check("witness list order achieves the optimum", ws.Makespan() == instances.Theorem1Optimum(tp),
		"LSRC(witness)=%v, C*=%v", ws.Makespan(), instances.Theorem1Optimum(tp))
	return r, nil
}
