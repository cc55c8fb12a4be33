package expt

import (
	"repro/internal/bounds"
	"repro/internal/exact"
	"repro/internal/instances"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "graham",
		Title: "Theorem 2: Graham bound without reservations",
		Paper: "Theorem 2 (appendix) — LSRC <= (2 - 1/m)·C*max on RIGIDSCHEDULING",
		Run:   runGraham,
	})
}

func runGraham(cfg Config) (*Report, error) {
	r := &Report{
		ID:    "graham",
		Title: "Theorem 2: Graham bound without reservations",
		Paper: "Theorem 2 (appendix)",
	}
	r.Notes = append(r.Notes,
		"adversarial family: m(m-1) unit jobs + one length-m job, FIFO list",
		"random sweep reference: exact merged-state search optimum")

	// Part 1: the adversarial family attains the bound exactly.
	ms := []int{2, 3, 4, 6, 8, 12}
	if cfg.Quick {
		ms = []int{2, 4}
	}
	t := stats.NewTable("m", "C*", "LSRC", "ratio", "2-1/m", "tight")
	tight := true
	for _, m := range ms {
		inst, err := instances.GrahamAdversarial(m)
		if err != nil {
			return nil, err
		}
		s, err := sched.NewLSRC(sched.FIFO).Schedule(inst)
		if err != nil {
			return nil, err
		}
		opt := instances.GrahamOptimum(m)
		ratio := float64(s.Makespan()) / float64(opt)
		want := bounds.Graham(m)
		ok := s.Makespan() == instances.GrahamLSRCMakespan(m)
		if !ok {
			tight = false
		}
		t.AddRow(m, int64(opt), int64(s.Makespan()), ratio, want, ok)
	}
	r.Tables = append(r.Tables, NamedTable{Caption: "adversarial family: ratio = 2 - 1/m exactly", Table: t})
	r.check("adversarial family attains 2 - 1/m exactly", tight, "m grid %v", ms)

	// Part 2: random rigid instances never exceed the bound (vs exact).
	nTrials := 300
	if cfg.Quick {
		nTrials = 30
	}
	type out struct {
		ratio float64
		bound float64
		err   error
	}
	outs := parMap(cfg, nTrials, func(i int) out {
		rr := rng.NewStream(cfg.Seed^0x62a4, uint64(i)+1)
		m := rr.IntRange(2, 6)
		inst := instances.RandomRigid(rr, instances.RigidConfig{
			M: m, N: rr.IntRange(2, 7), MaxLen: 9,
		})
		res, err := exact.Solve(inst)
		if err != nil || !res.Optimal {
			return out{err: err}
		}
		worst := 0.0
		for _, o := range []sched.Order{sched.FIFO, sched.LPT, sched.SPT, sched.WidestFirst} {
			s, err := sched.NewLSRC(o).Schedule(inst)
			if err != nil {
				return out{err: err}
			}
			if ratio := float64(s.Makespan()) / float64(res.Cmax); ratio > worst {
				worst = ratio
			}
		}
		return out{ratio: worst, bound: bounds.Graham(m)}
	})
	var ratios []float64
	allBelow := true
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		ratios = append(ratios, o.ratio)
		if o.ratio > o.bound+1e-9 {
			allBelow = false
		}
	}
	sum := stats.Summarize(ratios)
	t2 := stats.NewTable("trials", "mean ratio", "p95", "max", "global bound")
	t2.AddRow(len(ratios), sum.Mean, sum.P95, sum.Max, 2.0)
	r.Tables = append(r.Tables, NamedTable{Caption: "random rigid instances, worst ratio over 4 list orders vs exact", Table: t2})
	r.check("no random instance exceeds 2 - 1/m", allBelow, "max observed %.4f", sum.Max)
	return r, nil
}
