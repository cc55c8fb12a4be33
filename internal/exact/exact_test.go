package exact

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/instances"
	"repro/internal/lower"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/verify"
)

// bruteForce enumerates all start-time combinations on the integer grid
// [0, horizon] and returns the optimal makespan. Exponential; only for
// cross-checking tiny instances.
func bruteForce(inst *core.Instance, horizon core.Time) core.Time {
	n := len(inst.Jobs)
	starts := make([]core.Time, n)
	best := core.Infinity
	u := inst.Unavailability()
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			var cmax core.Time
			for k, s := range starts {
				if e := s + inst.Jobs[k].Len; e > cmax {
					cmax = e
				}
			}
			// Feasibility via per-tick usage.
			for t := core.Time(0); t < cmax; t++ {
				use := u.At(t)
				for k, s := range starts {
					if s <= t && t < s+inst.Jobs[k].Len {
						use += inst.Jobs[k].Procs
					}
				}
				if use > inst.M {
					return
				}
			}
			if cmax < best {
				best = cmax
			}
			return
		}
		for s := core.Time(0); s <= horizon; s++ {
			starts[i] = s
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// branchAndBound is the oracle Solve replaced: a depth-first search over
// job orders, each job placed at its earliest feasible start on the whole
// timeline (not only after the previous start), one branch per class of
// identical jobs, pruned by the committed partial makespan, the area the
// work left needs and each class's earliest completion. It starts with no
// incumbent, so it shares no heuristic with Solve. It returns the optimal
// makespan, or an error if some job never fits.
func branchAndBound(inst *core.Instance) (core.Time, error) {
	type class struct {
		procs int
		len   core.Time
		left  int
	}
	var classes []class
	byShape := make(map[[2]int64]int)
	for _, j := range inst.Jobs {
		k, ok := byShape[[2]int64{int64(j.Procs), int64(j.Len)}]
		if !ok {
			k = len(classes)
			byShape[[2]int64{int64(j.Procs), int64(j.Len)}] = k
			classes = append(classes, class{procs: j.Procs, len: j.Len})
		}
		classes[k].left++
	}
	tl := profile.MustFromReservations(inst.M, inst.Res)
	remWork, partCmax, best := inst.TotalWork(), core.Time(0), core.Infinity
	bound := func() core.Time {
		lb, ok := tl.FirstTimeWithFreeArea(remWork)
		if !ok {
			return core.Infinity
		}
		lb = max(lb, partCmax)
		for _, c := range classes {
			if c.left == 0 {
				continue
			}
			s, ok := tl.FindSlot(0, c.procs, c.len)
			if !ok {
				return core.Infinity
			}
			lb = max(lb, s+c.len)
		}
		return lb
	}
	var dfs func()
	dfs = func() {
		if remWork == 0 {
			best = min(best, partCmax)
			return
		}
		if bound() >= best {
			return
		}
		for ci := range classes {
			c := &classes[ci]
			if c.left == 0 {
				continue
			}
			s, ok := tl.FindSlot(0, c.procs, c.len)
			if !ok {
				continue
			}
			if err := tl.Commit(s, c.len, c.procs); err != nil {
				panic(err)
			}
			c.left--
			remWork -= int64(c.procs) * int64(c.len)
			prev := partCmax
			partCmax = max(partCmax, s+c.len)
			dfs()
			partCmax = prev
			remWork += int64(c.procs) * int64(c.len)
			c.left++
			if err := tl.Release(s, c.len, c.procs); err != nil {
				panic(err)
			}
		}
	}
	dfs()
	if best == core.Infinity {
		return 0, ErrUnschedulable
	}
	return best, nil
}

func TestSolveTrivial(t *testing.T) {
	inst := &core.Instance{M: 2, Jobs: []core.Job{{ID: 0, Procs: 1, Len: 5}}}
	res, err := Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cmax != 5 || !res.Optimal {
		t.Fatalf("Cmax = %v optimal=%v", res.Cmax, res.Optimal)
	}
	if err := verify.Verify(res.Schedule); err != nil {
		t.Fatal(err)
	}
}

func TestSolveEmpty(t *testing.T) {
	res, err := Solve(&core.Instance{M: 3})
	if err != nil || res.Cmax != 0 || !res.Optimal {
		t.Fatalf("empty solve: %+v, %v", res, err)
	}
}

func TestSolveProp2K3Optimum(t *testing.T) {
	// The k=3 Proposition 2 instance (see sched tests): optimal makespan 3
	// (scaled): big tasks at 0 beside one small; smalls chain on the same
	// processors.
	inst := &core.Instance{
		M: 18,
		Jobs: []core.Job{
			{ID: 0, Procs: 4, Len: 1},
			{ID: 1, Procs: 4, Len: 1},
			{ID: 2, Procs: 4, Len: 1},
			{ID: 3, Procs: 7, Len: 3},
			{ID: 4, Procs: 7, Len: 3},
		},
		Res: []core.Reservation{{ID: 0, Procs: 6, Start: 3, Len: 18}},
	}
	res, err := Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Cmax != 3 {
		t.Fatalf("Cmax = %v optimal=%v, want 3", res.Cmax, res.Optimal)
	}
	if err := verify.Verify(res.Schedule); err != nil {
		t.Fatal(err)
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	r := rng.New(60601)
	for trial := 0; trial < 60; trial++ {
		m := r.IntRange(1, 4)
		inst := &core.Instance{M: m}
		n := r.IntRange(1, 4)
		for i := 0; i < n; i++ {
			inst.Jobs = append(inst.Jobs, core.Job{
				ID: i, Procs: r.IntRange(1, m), Len: core.Time(r.IntRange(1, 4)),
			})
		}
		if r.Bool(0.6) {
			inst.Res = append(inst.Res, core.Reservation{
				ID: 0, Procs: r.IntRange(1, m), Start: core.Time(r.Intn(5)),
				Len: core.Time(r.IntRange(1, 4)),
			})
		}
		res, err := Solve(inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteForce(inst, 20)
		if res.Cmax != want {
			t.Fatalf("trial %d: Solve=%v bruteForce=%v\ninstance: %+v",
				trial, res.Cmax, want, inst)
		}
		if err := verify.Verify(res.Schedule); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSolveBudgetExhaustion(t *testing.T) {
	// Many distinct jobs with a tiny budget: must return ErrBudget and an
	// upper bound at least as good as the heuristics.
	inst := &core.Instance{M: 5}
	r := rng.New(3)
	for i := 0; i < 12; i++ {
		inst.Jobs = append(inst.Jobs, core.Job{
			ID: i, Procs: r.IntRange(1, 5), Len: core.Time(100 + r.Intn(900)),
		})
	}
	res, err := (&Solver{MaxNodes: 50}).Solve(inst)
	if !errors.Is(err, ErrBudget) {
		// A budget of 50 nodes cannot close a 12-distinct-job search
		// unless bounds prove optimality immediately; accept both but
		// require a valid schedule.
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if res.Schedule == nil || verify.Verify(res.Schedule) != nil {
		t.Fatal("budget-exhausted result must still be feasible")
	}
}

func TestSolveInvalidInstance(t *testing.T) {
	if _, err := Solve(&core.Instance{M: 0}); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

// TestSolveM1Basic: at m = 1 the search is the subset DP over the
// completion frontier; jobs 3,2,2 around reservations cutting windows
// [0,3), [4,6), [7,+inf).
func TestSolveM1Basic(t *testing.T) {
	inst := &core.Instance{
		M: 1,
		Jobs: []core.Job{
			{ID: 0, Procs: 1, Len: 3},
			{ID: 1, Procs: 1, Len: 2},
			{ID: 2, Procs: 1, Len: 2},
		},
		Res: []core.Reservation{
			{ID: 0, Procs: 1, Start: 3, Len: 1},
			{ID: 1, Procs: 1, Start: 6, Len: 1},
		},
	}
	res, err := Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	// 3 fills [0,3); one 2 fills [4,6); other 2 at [7,9).
	if res.Cmax != 9 || !res.Optimal {
		t.Fatalf("Cmax = %v optimal=%v, want 9", res.Cmax, res.Optimal)
	}
	if err := verify.Verify(res.Schedule); err != nil {
		t.Fatal(err)
	}
}

func TestSolveM1OrderMatters(t *testing.T) {
	// Window [0,2) then blocked [2,3): the length-2 job must go first or
	// it cannot use the early window.
	inst := &core.Instance{
		M: 1,
		Jobs: []core.Job{
			{ID: 0, Procs: 1, Len: 1},
			{ID: 1, Procs: 1, Len: 2},
		},
		Res: []core.Reservation{{ID: 0, Procs: 1, Start: 2, Len: 1}},
	}
	res, err := Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: len-2 at [0,2), len-1 at [3,4) -> 4.
	if res.Cmax != 4 {
		t.Fatalf("Cmax = %v, want 4", res.Cmax)
	}
}

// TestSolveM1MatchesSolve: at m = 1, with reservations cutting the line
// into windows, Solve matches the branch-and-bound oracle and each
// multiset keeps one state, so no layer holds more states than there are
// multisets of its size.
func TestSolveM1MatchesSolve(t *testing.T) {
	r := rng.New(808)
	for trial := 0; trial < 40; trial++ {
		inst := &core.Instance{M: 1}
		n := r.IntRange(1, 6)
		for i := 0; i < n; i++ {
			inst.Jobs = append(inst.Jobs, core.Job{ID: i, Procs: 1, Len: core.Time(r.IntRange(1, 5))})
		}
		for k := 0; k < r.IntRange(0, 2); k++ {
			inst.Res = append(inst.Res, core.Reservation{
				ID: k, Procs: 1, Start: core.Time(2 + r.Intn(10) + 12*k), Len: core.Time(r.IntRange(1, 3)),
			})
		}
		if inst.Validate() != nil {
			continue
		}
		res, err := Solve(inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := branchAndBound(inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Cmax != want {
			t.Fatalf("trial %d: Solve %v vs branch-and-bound %v\ninstance: %+v", trial, res.Cmax, want, inst)
		}
		if res.Nodes > 1<<n {
			t.Fatalf("trial %d: %d states expanded for %d jobs", trial, res.Nodes, n)
		}
		if err := verify.Verify(res.Schedule); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestSolveM1Limits: Solve has no m = 1 job cap (the subset DP it
// replaced stopped at 22 jobs) and takes any m. 23 jobs of lengths 1 and 2
// before a reservation at [5,6) fill [0,5) exactly: OPT = work + 1.
func TestSolveM1Limits(t *testing.T) {
	inst := &core.Instance{M: 1, Res: []core.Reservation{{ID: 0, Procs: 1, Start: 5, Len: 1}}}
	for i := 0; i < 23; i++ {
		inst.Jobs = append(inst.Jobs, core.Job{ID: i, Procs: 1, Len: core.Time(1 + i%2)})
	}
	res, err := Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.Time(inst.TotalWork() + 1); !res.Optimal || res.Cmax != want {
		t.Fatalf("Cmax = %v optimal=%v, want %v", res.Cmax, res.Optimal, want)
	}
	if err := verify.Verify(res.Schedule); err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(&core.Instance{M: 2, Jobs: []core.Job{{ID: 0, Procs: 2, Len: 1}}}); err != nil {
		t.Fatalf("m=2 refused: %v", err)
	}
}

func TestSolveM1Unschedulable(t *testing.T) {
	inst := &core.Instance{
		M:    1,
		Jobs: []core.Job{{ID: 0, Procs: 1, Len: 5}},
		Res:  []core.Reservation{{ID: 0, Procs: 1, Start: 2, Len: core.Infinity}},
	}
	if _, err := Solve(inst); !errors.Is(err, ErrUnschedulable) {
		t.Fatalf("got %v", err)
	}
}

// alphaCase is the seed-th instance of the differential tests: a
// RandomAlpha instance with m in 1..8, n in 1..7 and α in {¼, ½, ¾, 1}.
func alphaCase(seed uint64) *core.Instance {
	r := rng.New(seed)
	alphas := []float64{0.25, 0.5, 0.75, 1}
	return instances.RandomAlpha(r, instances.AlphaConfig{
		M: r.IntRange(1, 8), N: r.IntRange(1, 7), Alpha: alphas[r.Intn(len(alphas))],
		MaxLen: 8, NRes: r.IntRange(0, 4), Horizon: 30,
	})
}

// tinyCase is the seed-th instance small enough for bruteForce.
func tinyCase(seed uint64) *core.Instance {
	r := rng.New(seed)
	m := r.IntRange(1, 3)
	inst := &core.Instance{M: m}
	for i := 0; i < r.IntRange(1, 3); i++ {
		inst.Jobs = append(inst.Jobs, core.Job{ID: i, Procs: r.IntRange(1, m), Len: core.Time(r.IntRange(1, 3))})
	}
	for k := 0; k < r.IntRange(0, 2); k++ {
		inst.Res = append(inst.Res, core.Reservation{
			ID: k, Procs: r.IntRange(1, m), Start: core.Time(r.Intn(6)), Len: core.Time(r.IntRange(1, 4)),
		})
	}
	return inst
}

// TestSolveMatchesBranchAndBound: Solve's optimum equals the
// branch-and-bound oracle's on RandomAlpha instances (m = 1 and α = 1
// among them) and bruteForce's on tiny ones, and its schedule is feasible
// and attains it. The heuristics' incumbent is already optimal on most of
// these, so the search is also run without it, where it must find the
// optimum itself. The failing seed is printed.
func TestSolveMatchesBranchAndBound(t *testing.T) {
	check := func(what string, seed uint64, inst *core.Instance, want core.Time) {
		t.Helper()
		full, err := Solve(inst)
		if err != nil {
			t.Fatalf("%s seed %d: %v", what, seed, err)
		}
		unaided, err := solve(inst, nil, DefaultMaxNodes)
		if err != nil {
			t.Fatalf("%s seed %d: unaided: %v", what, seed, err)
		}
		for _, res := range []*Result{full, unaided} {
			if res.Cmax != want || !res.Optimal {
				t.Fatalf("%s seed %d: Solve %v, unaided search %v, want %v\ninstance: %+v",
					what, seed, full.Cmax, unaided.Cmax, want, inst)
			}
			if err := verify.Verify(res.Schedule); err != nil || res.Schedule.Makespan() != want {
				t.Fatalf("%s seed %d: schedule of makespan %v for Cmax %v: %v",
					what, seed, res.Schedule.Makespan(), want, err)
			}
		}
	}
	for seed := uint64(1); seed <= 400; seed++ {
		inst := alphaCase(seed)
		if inst.Validate() != nil {
			continue
		}
		want, err := branchAndBound(inst)
		if err != nil {
			t.Fatalf("alpha seed %d: oracle: %v", seed, err)
		}
		check("alpha", seed, inst, want)
	}
	for seed := uint64(1); seed <= 300; seed++ {
		if inst := tinyCase(seed); inst.Validate() == nil {
			check("tiny", seed, inst, bruteForce(inst, 18))
		}
	}
}

// TestLowerBoundBelowOptimum: lower.Best never exceeds the optimum. Solve
// does not consult lower, so this checks the bound against an
// independently proven optimum on every instance of the differential test.
func TestLowerBoundBelowOptimum(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		inst := alphaCase(seed)
		if inst.Validate() != nil {
			continue
		}
		res, err := Solve(inst)
		if err != nil || !res.Optimal {
			t.Fatalf("seed %d: %v (optimal=%v)", seed, err, res != nil && res.Optimal)
		}
		if lb := lower.Best(inst); lb > res.Cmax {
			t.Fatalf("seed %d: lower.Best %v > OPT %v\ninstance: %+v", seed, lb, res.Cmax, inst)
		}
	}
}

func TestSolveIdenticalJobsFast(t *testing.T) {
	// 16 identical jobs: the class collapse must make this instant
	// (a single chain, no branching).
	inst := &core.Instance{M: 4}
	for i := 0; i < 16; i++ {
		inst.Jobs = append(inst.Jobs, core.Job{ID: i, Procs: 2, Len: 3})
	}
	res, err := (&Solver{MaxNodes: 10_000}).Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Cmax != 24 { // 2 per shelf, 8 shelves of 3
		t.Fatalf("Cmax = %v optimal=%v, want 24", res.Cmax, res.Optimal)
	}
}

// TestClassCollapseShrinksSearch: nine identical jobs, only one of which
// fits at a time, are one class, so each layer holds one multiset, and
// that multiset one state: the search expands one state per job.
func TestClassCollapseShrinksSearch(t *testing.T) {
	inst := &core.Instance{M: 3}
	for i := 0; i < 9; i++ {
		inst.Jobs = append(inst.Jobs, core.Job{ID: i, Procs: 2, Len: 4})
	}
	res, err := Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Cmax != 36 {
		t.Fatalf("Cmax = %v optimal=%v, want 36", res.Cmax, res.Optimal)
	}
	if res.Nodes > 9 {
		t.Fatalf("%d states expanded for 9 identical jobs", res.Nodes)
	}
}

func BenchmarkSolve8Jobs(b *testing.B) {
	r := rng.New(5150)
	inst := &core.Instance{M: 4}
	for i := 0; i < 8; i++ {
		inst.Jobs = append(inst.Jobs, core.Job{
			ID: i, Procs: r.IntRange(1, 4), Len: core.Time(r.IntRange(1, 9)),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveM1_14Jobs is the instance the m = 1 subset DP was
// measured on: 14 jobs around two reservations.
func BenchmarkSolveM1_14Jobs(b *testing.B) {
	r := rng.New(6)
	inst := &core.Instance{M: 1}
	for i := 0; i < 14; i++ {
		inst.Jobs = append(inst.Jobs, core.Job{ID: i, Procs: 1, Len: core.Time(r.IntRange(1, 9))})
	}
	inst.Res = []core.Reservation{
		{ID: 0, Procs: 1, Start: 10, Len: 2},
		{ID: 1, Procs: 1, Start: 30, Len: 3},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolve12Jobs: one RandomAlpha instance at m = 8, n = 12, α = ½,
// the size the branch-and-bound often could not finish in its budget.
func BenchmarkSolve12Jobs(b *testing.B) {
	inst := instances.RandomAlpha(rng.New(12), instances.AlphaConfig{
		M: 8, N: 12, Alpha: 0.5, MaxLen: 8, NRes: 4, Horizon: 30,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Solve(inst)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Nodes), "states")
	}
}
