package expt

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "search",
		Title: "adversarial search for worst-case LSRC ratios",
		Paper: "extension — empirical probe of the gap between B1/B2 and the 2/α upper bound (Figure 4 discussion)",
		Run:   runSearch,
	})
}

// searchState is one α-restricted instance with its measured LSRC ratio.
type searchState struct {
	inst  *core.Instance
	ratio float64
}

// evalRatio returns the worst LSRC ratio over a handful of list orders,
// against the exact optimum. ok=false if the instance is degenerate or the
// solver gives up.
func evalRatio(inst *core.Instance, budget int64) (float64, bool) {
	if err := inst.Validate(); err != nil {
		return 0, false
	}
	res, err := (&exact.Solver{MaxNodes: budget}).Solve(inst)
	if err != nil || !res.Optimal || res.Cmax == 0 {
		return 0, false
	}
	worst := 0.0
	for _, o := range []sched.Order{sched.FIFO, sched.LPT, sched.NarrowestFirst} {
		s, err := sched.NewLSRC(o).Schedule(inst)
		if err != nil {
			return 0, false
		}
		if r := float64(s.Makespan()) / float64(res.Cmax); r > worst {
			worst = r
		}
	}
	return worst, true
}

// mutate perturbs the instance in place-safe copy: job widths/lengths and
// the reservation window jiggle while preserving the α restriction.
func mutate(r *rng.PCG, st searchState, maxQ, maxU int) *core.Instance {
	inst := st.inst.Clone()
	switch r.Intn(4) {
	case 0: // perturb a job length
		if len(inst.Jobs) > 0 {
			j := r.Intn(len(inst.Jobs))
			l := inst.Jobs[j].Len + core.Time(r.IntRange(-2, 2))
			if l >= 1 {
				inst.Jobs[j].Len = l
			}
		}
	case 1: // perturb a job width
		if len(inst.Jobs) > 0 {
			j := r.Intn(len(inst.Jobs))
			q := inst.Jobs[j].Procs + r.IntRange(-1, 1)
			if q >= 1 && q <= maxQ {
				inst.Jobs[j].Procs = q
			}
		}
	case 2: // perturb the reservation window
		if len(inst.Res) > 0 {
			k := r.Intn(len(inst.Res))
			s := inst.Res[k].Start + core.Time(r.IntRange(-2, 2))
			l := inst.Res[k].Len + core.Time(r.IntRange(-2, 2))
			if s >= 0 && l >= 1 {
				inst.Res[k].Start, inst.Res[k].Len = s, l
			}
		}
	default: // perturb reservation width
		if len(inst.Res) > 0 {
			k := r.Intn(len(inst.Res))
			q := inst.Res[k].Procs + r.IntRange(-1, 1)
			if q >= 1 && q <= maxU {
				inst.Res[k].Procs = q
			}
		}
	}
	return inst
}

// seedInstance builds the hill-climbing start point for a given α: a small
// Prop-2-flavoured instance (wide jobs plus a blocking reservation).
func seedInstance(r *rng.PCG, m int, alpha float64) *core.Instance {
	maxQ := int(alpha * float64(m))
	if maxQ < 1 {
		maxQ = 1
	}
	maxU := m - maxQ
	inst := &core.Instance{Name: "search-seed", M: m}
	n := r.IntRange(3, 6)
	for i := 0; i < n; i++ {
		inst.Jobs = append(inst.Jobs, core.Job{
			ID: i, Procs: r.IntRange(1, maxQ), Len: core.Time(r.IntRange(1, 6)),
		})
	}
	if maxU > 0 {
		inst.Res = append(inst.Res, core.Reservation{
			ID: 0, Procs: r.IntRange(1, maxU), Start: core.Time(r.IntRange(1, 5)),
			Len: core.Time(r.IntRange(2, 10)),
		})
	}
	return inst
}

func runSearch(cfg Config) (*Report, error) {
	r := &Report{
		ID:    "search",
		Title: "adversarial search for worst-case LSRC ratios",
		Paper: "extension of the Figure 4 discussion",
	}
	r.Notes = append(r.Notes,
		"hill climbing over α-restricted instances (n<=6, exact reference), keeping mutations that worsen the LSRC ratio",
		"the engineered Prop-2 family needs m=k²(k-1) processors; this search probes what small random-ish instances reach")

	alphas := []float64{0.5, 2.0 / 3}
	iters := 300
	restarts := 6
	if cfg.Quick {
		iters = 40
		restarts = 2
	}
	type out struct {
		alpha float64
		best  searchState
		err   error
	}
	outs := parMap(cfg, len(alphas), func(ai int) out {
		alpha := alphas[ai]
		m := 6
		maxQ := int(alpha * float64(m))
		maxU := m - maxQ
		var best searchState
		for rs := 0; rs < restarts; rs++ {
			rr := rng.NewStream(cfg.Seed^0x5EA2C4, uint64(ai*1000+rs)+1)
			cur := searchState{inst: seedInstance(rr, m, alpha)}
			ratio, ok := evalRatio(cur.inst, 200_000)
			if !ok {
				continue
			}
			cur.ratio = ratio
			for it := 0; it < iters; it++ {
				cand := mutate(rr, cur, maxQ, maxU)
				cr, ok := evalRatio(cand, 200_000)
				if !ok {
					continue
				}
				if cr > cur.ratio {
					cur = searchState{inst: cand, ratio: cr}
				}
			}
			if cur.ratio > best.ratio {
				best = cur
			}
		}
		if best.inst == nil {
			return out{err: fmt.Errorf("search: no feasible instance found for α=%.2f", alpha)}
		}
		return out{alpha: alpha, best: best}
	})

	t := stats.NewTable("alpha", "alpha'", "found ratio", "B2(alpha)", "Prop2 bound", "upper 2/alpha'", "m", "n")
	allSound := true
	allNontrivial := true
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		// The found instance is α′-restricted, α′ = Alpha(), which is
		// below α when α·m is not an integer: 2/α′ is what it is owed.
		a, ok := o.best.inst.Alpha()
		upper := bounds.AlphaUpper(a)
		if !ok || o.best.ratio > upper+1e-9 {
			allSound = false
		}
		if o.best.ratio < 1.2 {
			allNontrivial = false
		}
		t.AddRow(o.alpha, a, o.best.ratio, bounds.B2(o.alpha), bounds.Prop2(o.alpha), upper,
			o.best.inst.M, len(o.best.inst.Jobs))
	}
	r.Tables = append(r.Tables, NamedTable{
		Caption: "worst LSRC ratios found by hill climbing (small instances)",
		Table:   t,
	})
	r.check("every found instance is α′-restricted and within its 2/α′ guarantee", allSound, "sound upper bound")
	r.check("search escapes the trivial regime (ratio > 1.2 at every α)", allNontrivial,
		"hill climbing finds genuinely bad instances")
	r.Notes = append(r.Notes,
		"found ratios sit below the Prop-2 bound, as expected: attaining it needs the engineered family's scale (fig3)")
	return r, nil
}
