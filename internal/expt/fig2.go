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
		ID:    "fig2",
		Title: "Proposition 1: non-increasing reservations",
		Paper: "Proposition 1 / Figure 2 — LSRC <= (2 - 1/m(C*max))·C*max when U(t) is non-increasing",
		Run:   runFig2,
	})
}

func runFig2(cfg Config) (*Report, error) {
	r := &Report{
		ID:    "fig2",
		Title: "Proposition 1: non-increasing reservations",
		Paper: "Proposition 1 / Figure 2",
	}
	r.Notes = append(r.Notes,
		"instances: random staircases (all reservations release at random times, none arrive)",
		"reference: exact merged-state search optimum",
		"m(C*max) is the availability at the optimal makespan")

	nTrials := 400
	if cfg.Quick {
		nTrials = 40
	}
	type row struct {
		m, n        int
		opt, lsrc   int64
		ratio       float64
		bound       float64
		mAtOpt      int
		transformOK bool
		chainOK     bool
		err         error
	}
	rows := parMap(cfg, nTrials, func(i int) row {
		rr := rng.NewStream(cfg.Seed^0xF162, uint64(i)+1)
		inst := instances.RandomStaircase(rr, instances.StaircaseConfig{
			M:          rr.IntRange(2, 8),
			N:          rr.IntRange(2, 7),
			MaxLen:     8,
			Steps:      rr.IntRange(1, 3),
			MaxStepLen: 12,
		})
		res, err := exact.Solve(inst)
		if err != nil {
			return row{err: err}
		}
		if !res.Optimal {
			return row{err: fmt.Errorf("fig2: trial %d not solved to optimality", i)}
		}
		s, err := sched.NewLSRC(sched.FIFO).Schedule(inst)
		if err != nil {
			return row{err: err}
		}
		mAtOpt := instances.MachinesAtTime(inst, res.Cmax)
		// Transformation check (Figure 2): LSRC places every real job at
		// the same start time on the reservation-free rewrite (the
		// staircase tasks themselves may outlast the jobs, so makespans
		// are compared on the original jobs only).
		trans, err := instances.ReservationsToTasks(inst)
		if err != nil {
			return row{err: err}
		}
		ts, err := sched.NewLSRC(sched.FIFO).Schedule(trans)
		if err != nil {
			return row{err: err}
		}
		sc := instances.StaircaseCount(inst)
		transformOK := true
		for ji := range inst.Jobs {
			if ts.StartOf(sc+ji) != s.StartOf(ji) {
				transformOK = false
			}
		}
		// The proof's first step (I -> I', truncation at C*max): the
		// optimum is unchanged and LSRC on I is no worse than on I'.
		chainOK := true
		if res.Cmax > 0 {
			iPrime, err := instances.TruncateTail(inst, res.Cmax)
			if err != nil {
				return row{err: err}
			}
			resPrime, err := exact.Solve(iPrime)
			if err != nil || !resPrime.Optimal {
				return row{err: fmt.Errorf("fig2: truncated solve: %v", err)}
			}
			sPrime, err := sched.NewLSRC(sched.FIFO).Schedule(iPrime)
			if err != nil {
				return row{err: err}
			}
			chainOK = resPrime.Cmax == res.Cmax && s.Makespan() <= sPrime.Makespan()
		}
		return row{
			m: inst.M, n: len(inst.Jobs),
			opt: int64(res.Cmax), lsrc: int64(s.Makespan()),
			ratio:       float64(s.Makespan()) / float64(res.Cmax),
			bound:       bounds.NonIncreasing(mAtOpt),
			mAtOpt:      mAtOpt,
			transformOK: transformOK,
			chainOK:     chainOK,
		}
	})

	var ratios []float64
	worst := row{}
	allBelow, allTransform, allChain := true, true, true
	for _, o := range rows {
		if o.err != nil {
			return nil, o.err
		}
		ratios = append(ratios, o.ratio)
		if o.ratio > worst.ratio {
			worst = o
		}
		if o.ratio > o.bound+1e-9 {
			allBelow = false
		}
		if !o.transformOK {
			allTransform = false
		}
		if !o.chainOK {
			allChain = false
		}
	}
	sum := stats.Summarize(ratios)
	t := stats.NewTable("trials", "mean ratio", "p95 ratio", "max ratio", "worst bound 2-1/m(C*)")
	t.AddRow(len(rows), sum.Mean, sum.P95, sum.Max, worst.bound)
	r.Tables = append(r.Tables, NamedTable{Caption: "LSRC vs exact optimum on non-increasing instances", Table: t})

	wt := stats.NewTable("m", "n", "C*", "LSRC", "ratio", "bound")
	wt.AddRow(worst.m, worst.n, worst.opt, worst.lsrc, worst.ratio, worst.bound)
	r.Tables = append(r.Tables, NamedTable{Caption: "worst observed instance", Table: wt})

	r.check("LSRC <= (2 - 1/m(C*max))·C*max on every instance", allBelow,
		"max ratio %.4f vs per-instance bounds", sum.Max)
	nOK := 0
	for _, o := range rows {
		if o.transformOK {
			nOK++
		}
	}
	r.check("Figure 2 transformation preserves every LSRC job placement", allTransform,
		"%d/%d instances identical", nOK, len(rows))
	r.check("proof chain I -> I' (truncation at C*max) preserves the optimum and dominates LSRC", allChain,
		"C*(I')=C*(I) and LSRC(I) <= LSRC(I') on every instance")
	return r, nil
}
