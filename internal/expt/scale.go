package expt

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lower"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "scale",
		Title: "scalability: LSRC quality and throughput vs cluster size",
		Paper: "extension — engineering evaluation of the reference implementation",
		Run:   runScale,
	})
}

// ledgerBackend is the tree index with every call counted and timed. The
// backend registry hands a scheduler a constructor, not an instance, so the
// wrappers write to package state: indexLedger's lock is held for the length
// of the one Schedule call being accounted.
const ledgerBackend = "expt-ledger"

var indexLedger struct {
	sync.Mutex
	calls        int
	busy, commit time.Duration
}

type ledgerIndex struct{ profile.CapacityIndex }

func init() {
	profile.RegisterBackend(ledgerBackend, func(m int) profile.CapacityIndex {
		tree, err := profile.NewIndex("tree", m)
		if err != nil {
			panic(err) // sched links the tree backend in
		}
		return ledgerIndex{tree}
	})
}

// stamp books one index call that began at t0.
func stamp(t0 time.Time) time.Duration {
	d := time.Since(t0)
	indexLedger.calls++
	indexLedger.busy += d
	return d
}

func (l ledgerIndex) AvailableAt(t core.Time) int {
	defer stamp(time.Now())
	return l.CapacityIndex.AvailableAt(t)
}

func (l ledgerIndex) CanPlace(start, dur core.Time, q int) bool {
	defer stamp(time.Now())
	return l.CapacityIndex.CanPlace(start, dur, q)
}

func (l ledgerIndex) FindSlot(ready core.Time, q int, dur core.Time) (core.Time, bool) {
	defer stamp(time.Now())
	return l.CapacityIndex.FindSlot(ready, q, dur)
}

func (l ledgerIndex) NextBreakpoint(t core.Time) (core.Time, bool) {
	defer stamp(time.Now())
	return l.CapacityIndex.NextBreakpoint(t)
}

func (l ledgerIndex) Commit(start, dur core.Time, q int) error {
	t0 := time.Now()
	err := l.CapacityIndex.Commit(start, dur, q)
	indexLedger.commit += stamp(t0)
	return err
}

// stampBias is what a stamp reads for a call that does nothing: the clock's
// own cost, about as much as a CanPlace on this index. runScale takes it
// out of every call it accounts.
func stampBias() time.Duration {
	const empties = 1 << 16
	indexLedger.Lock()
	defer indexLedger.Unlock()
	indexLedger.busy = 0
	for i := 0; i < empties; i++ {
		func() { defer stamp(time.Now()) }()
	}
	return indexLedger.busy / empties
}

func runScale(cfg Config) (*Report, error) {
	r := &Report{
		ID:    "scale",
		Title: "scalability: LSRC quality and throughput vs cluster size",
		Paper: "extension (implementation evaluation)",
	}
	r.Notes = append(r.Notes,
		"workloads: synthetic traces with α=1/2 reservation streams; quality = makespan / availability-aware lower bound",
		"LSRC-LPT on the tree index; wall-clock times are indicative (single run per cell, cells timed one after another)",
		"index columns come from a second run on a counting, timing wrapper of the same index, its time set against the first run's wall-clock: calls include the reservations' commits, and what the clock reads for an empty call is taken out of each")

	type cell struct {
		m, n int
	}
	grid := []cell{{64, 500}, {128, 1000}, {256, 2000}, {512, 4000}, {1024, 20000}, {2048, 100000}}
	if cfg.Quick {
		grid = []cell{{32, 200}, {64, 400}}
	}
	type prepared struct {
		inst *core.Instance
		lb   core.Time
		err  error
	}
	insts := parMap(cfg, len(grid), func(i int) prepared {
		c := grid[i]
		rr := rng.NewStream(cfg.Seed^0x5CA1E, uint64(i)+1)
		inst, err := workload.SyntheticInstance(rr.Split(), workload.SynthConfig{
			M: c.m, N: c.n, MinRun: 10, MaxRun: 5000, MaxWidthFrac: 0.5,
		})
		if err != nil {
			return prepared{err: err}
		}
		inst.Res = workload.ReservationStream(rr.Split(), c.m, 0.5, c.n/50+1, 200000)
		lb := lower.Best(inst)
		if lb <= 0 || lb == core.Infinity {
			lb = 1
		}
		return prepared{inst: inst, lb: lb}
	})

	bias := stampBias()
	t := stats.NewTable("m", "jobs", "Cmax/LB", "wall-clock", "index calls/job", "index share", "Commit share")
	qualityOK := true
	var worst float64
	var bound []int // job counts at which the index has over half the wall-clock
	loShare, hiShare := 1.0, 0.0
	for i, p := range insts {
		if p.err != nil {
			return nil, p.err
		}
		start := time.Now()
		s, err := (&sched.LSRC{Order: sched.LPT, Backend: "tree"}).Schedule(p.inst)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)

		indexLedger.Lock()
		indexLedger.calls, indexLedger.busy, indexLedger.commit = 0, 0, 0
		_, err = (&sched.LSRC{Order: sched.LPT, Backend: ledgerBackend}).Schedule(p.inst)
		calls, busy, commit := indexLedger.calls, indexLedger.busy, indexLedger.commit
		indexLedger.Unlock()
		if err != nil {
			return nil, err
		}
		busy -= time.Duration(calls) * bias
		commit -= time.Duration(len(p.inst.Jobs)+len(p.inst.Res)) * bias

		quality := float64(s.Makespan()) / float64(p.lb)
		worst = max(worst, quality)
		if quality > 1.6 {
			qualityOK = false
		}
		n := grid[i].n
		share := float64(busy) / float64(elapsed)
		loShare, hiShare = min(loShare, share), max(hiShare, share)
		if share > 0.5 {
			bound = append(bound, n)
		}
		t.AddRow(grid[i].m, n, quality, elapsed.Round(10*time.Microsecond).String(),
			float64(calls)/float64(n), share, float64(commit)/float64(elapsed))
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"the index has %.2f–%.2f of the wall-clock over the grid, and over half of it (index-bound) %s; "+
			"near 4 calls per job the index time is Commit, every call above 4 is a refused CanPlace or its FindSlot (a job held back by a reservation ahead, at most once per reservation), "+
			"and the time outside the index is mostly the tournament's root-to-leaf descent to each job that may start (one per job started or parked, and one compare per event for the miss that ends its pass), then instance validation",
		loShare, hiShare, atJobCounts(bound)))
	r.Tables = append(r.Tables, NamedTable{
		Caption: "LSRC-LPT at production scale",
		Table:   t,
	})
	r.check("schedule quality stays near the lower bound at every scale", qualityOK,
		"worst Cmax/LB = %.3f (guarantee at α=1/2 allows 4.0)", worst)
	return r, nil
}

// atJobCounts names the grid's job counts in a note: "at job counts [n…]",
// or "at no job count" when there are none.
func atJobCounts(ns []int) string {
	if len(ns) == 0 {
		return "at no job count"
	}
	return fmt.Sprintf("at job counts %v", ns)
}
