package sched

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/verify"
)

// usageOf returns the processors s's jobs and reservations hold at each
// time, every scheduled job counted as a reservation of its window.
func usageOf(s *core.Schedule) *core.StepFunc {
	res := append([]core.Reservation(nil), s.Inst.Res...)
	for i, t := range s.Start {
		if t != core.Unscheduled {
			j := s.Inst.Jobs[i]
			res = append(res, core.Reservation{Procs: j.Procs, Start: t, Len: j.Len})
		}
	}
	return core.UnavailabilityOf(res)
}

// randInstance builds a random feasible instance whose reservations never
// blockade the machine forever.
func randInstance(r *rng.PCG, maxM, maxJobs int) *core.Instance {
	m := r.IntRange(1, maxM)
	inst := &core.Instance{M: m}
	n := r.IntRange(0, maxJobs)
	for i := 0; i < n; i++ {
		inst.Jobs = append(inst.Jobs, core.Job{
			ID:    i,
			Procs: r.IntRange(1, m),
			Len:   core.Time(r.IntRange(1, 20)),
		})
	}
	// Reservations: random, rejected if they oversubscribe.
	nr := r.IntRange(0, 4)
	u := make([]int, 200)
	for i := 0; i < nr; i++ {
		q := r.IntRange(1, m)
		start := core.Time(r.Intn(60))
		l := core.Time(r.IntRange(1, 30))
		ok := true
		for tm := start; tm < start+l && int(tm) < len(u); tm++ {
			if u[tm]+q > m {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for tm := start; tm < start+l && int(tm) < len(u); tm++ {
			u[tm] += q
		}
		inst.Res = append(inst.Res, core.Reservation{ID: len(inst.Res), Procs: q, Start: start, Len: l})
	}
	return inst
}

func allSchedulers() []Scheduler {
	return []Scheduler{
		NewLSRC(FIFO), NewLSRC(LPT), NewLSRC(SPT),
		NewLSRC(WidestFirst), NewLSRC(NarrowestFirst), NewLSRC(MaxWorkFirst),
		NewLSRC(RandomOrder(7)),
		FCFS{}, Conservative{}, EASY{},
		&Shelf{Fit: NextFit}, &Shelf{Fit: FirstFit},
	}
}

// TestAllSchedulersProduceFeasibleSchedules is the central safety property:
// every policy, on every random instance, yields a schedule that passes full
// verification (every job started, capacity, concrete processor assignment).
func TestAllSchedulersProduceFeasibleSchedules(t *testing.T) {
	r := rng.New(42421)
	for trial := 0; trial < 150; trial++ {
		inst := randInstance(r, 10, 12)
		for _, sc := range allSchedulers() {
			s, err := sc.Schedule(inst)
			if err != nil {
				t.Fatalf("trial %d: %s failed: %v\ninstance: %+v", trial, sc.Name(), err, inst)
			}
			if err := verify.Verify(s); err != nil {
				t.Fatalf("trial %d: %s infeasible: %v\ninstance: %+v\nstarts: %v",
					trial, sc.Name(), err, inst, s.Start)
			}
		}
	}
}

// TestSchedulersDeterministic re-runs every policy and demands identical
// schedules.
func TestSchedulersDeterministic(t *testing.T) {
	r := rng.New(999)
	for trial := 0; trial < 25; trial++ {
		inst := randInstance(r, 8, 10)
		for _, sc := range allSchedulers() {
			a, err := sc.Schedule(inst)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sc.Schedule(inst)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.Start {
				if a.Start[i] != b.Start[i] {
					t.Fatalf("%s nondeterministic on trial %d job %d", sc.Name(), trial, i)
				}
			}
		}
	}
}

// TestSchedulersDoNotMutateInstance guards against aliasing bugs.
func TestSchedulersDoNotMutateInstance(t *testing.T) {
	r := rng.New(31337)
	inst := randInstance(r, 8, 10)
	snapshot := inst.Clone()
	for _, sc := range allSchedulers() {
		if _, err := sc.Schedule(inst); err != nil {
			t.Fatal(err)
		}
	}
	if inst.M != snapshot.M || len(inst.Jobs) != len(snapshot.Jobs) {
		t.Fatal("instance shape mutated")
	}
	for i := range inst.Jobs {
		if inst.Jobs[i] != snapshot.Jobs[i] {
			t.Fatalf("job %d mutated", i)
		}
	}
	for i := range inst.Res {
		if inst.Res[i] != snapshot.Res[i] {
			t.Fatalf("reservation %d mutated", i)
		}
	}
}

// TestLSRCNoUnforcedIdleness: the defining property of list scheduling —
// whenever a job is waiting, it must be because it genuinely did not fit at
// every earlier instant (checked against the final committed timeline minus
// the job itself). We verify a weaker but exact consequence: at any time
// strictly before a job's start, starting it there (with everything else
// fixed) would violate capacity at some point of its window.
func TestLSRCNoUnforcedIdleness(t *testing.T) {
	r := rng.New(77777)
	for trial := 0; trial < 60; trial++ {
		inst := randInstance(r, 8, 8)
		s, err := NewLSRC(FIFO).Schedule(inst)
		if err != nil {
			t.Fatal(err)
		}
		total := usageOf(s)
		for i, j := range inst.Jobs {
			start := s.StartOf(i)
			// Try every earlier integral instant (random instances are
			// small, so this brute force is cheap).
			for cand := core.Time(0); cand < start; cand++ {
				// Would the job fit at cand given all other placements?
				fits := true
				for tm := cand; tm < cand+j.Len; tm++ {
					use := total.At(tm)
					if tm >= start && tm < start+j.Len {
						use -= j.Procs // remove the job's own usage
					}
					if use+j.Procs > inst.M {
						fits = false
						break
					}
				}
				if fits {
					t.Fatalf("trial %d: job %d idled: starts at %v but fits at %v\ninstance: %+v\nstarts: %v",
						trial, j.ID, start, cand, inst, s.Start)
				}
			}
		}
	}
}

// orders lists the deterministic priority rules.
func orders() []Order {
	return []Order{FIFO, LPT, SPT, WidestFirst, NarrowestFirst, MaxWorkFirst}
}

// TestOrdersArePermutations checks every priority rule emits a permutation.
func TestOrdersArePermutations(t *testing.T) {
	r := rng.New(5)
	inst := randInstance(r, 8, 15)
	rules := append(orders(), RandomOrder(3))
	for _, o := range rules {
		idx := o.Indices(inst)
		if len(idx) != len(inst.Jobs) {
			t.Fatalf("%s: wrong length", o.Name)
		}
		seen := make([]bool, len(idx))
		for _, v := range idx {
			if v < 0 || v >= len(idx) || seen[v] {
				t.Fatalf("%s: not a permutation: %v", o.Name, idx)
			}
			seen[v] = true
		}
	}
}

func TestOrderSemantics(t *testing.T) {
	inst := &core.Instance{M: 10, Jobs: []core.Job{
		{ID: 0, Procs: 2, Len: 5},
		{ID: 1, Procs: 8, Len: 9},
		{ID: 2, Procs: 5, Len: 1},
	}}
	check := func(name string, got, want []int) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s order = %v, want %v", name, got, want)
			}
		}
	}
	check("fifo", FIFO.Indices(inst), []int{0, 1, 2})
	check("lpt", LPT.Indices(inst), []int{1, 0, 2})
	check("spt", SPT.Indices(inst), []int{2, 0, 1})
	check("widest", WidestFirst.Indices(inst), []int{1, 2, 0})
	check("narrowest", NarrowestFirst.Indices(inst), []int{0, 2, 1})
	check("maxwork", MaxWorkFirst.Indices(inst), []int{1, 0, 2}) // 72, 10, 5
}

func TestRandomOrderStableForSeed(t *testing.T) {
	inst := &core.Instance{M: 4}
	for i := 0; i < 20; i++ {
		inst.Jobs = append(inst.Jobs, core.Job{ID: i, Procs: 1, Len: 1})
	}
	o := RandomOrder(11)
	a := o.Indices(inst)
	b := o.Indices(inst)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandomOrder not stable across calls")
		}
	}
}

// TestEASYNeverWorseThanFCFS: with exact runtimes, every EASY start time is
// no later than the FCFS start of the same job... this is NOT true in
// general (backfilled jobs can change the resource landscape), but the
// makespan comparison on random instances is a useful smoke check for the
// typical case; we assert only feasibility plus the documented head
// guarantee: the first job starts identically.
func TestEASYFirstJobGuarantee(t *testing.T) {
	r := rng.New(2718)
	for trial := 0; trial < 80; trial++ {
		inst := randInstance(r, 8, 10)
		if len(inst.Jobs) == 0 {
			continue
		}
		easy, err := EASY{}.Schedule(inst)
		if err != nil {
			t.Fatal(err)
		}
		fcfs, err := FCFS{}.Schedule(inst)
		if err != nil {
			t.Fatal(err)
		}
		if easy.StartOf(0) != fcfs.StartOf(0) {
			t.Fatalf("trial %d: first-job guarantee broken: EASY %v vs FCFS %v",
				trial, easy.StartOf(0), fcfs.StartOf(0))
		}
	}
}

// TestLSRCNeverWorseThanFCFSOnMakespanForFIFO is false in general (list
// scheduling anomalies), so instead we check a sound dominance: the
// conservative backfilling makespan never exceeds the FCFS makespan, since
// conservative placement is FindSlot from 0 instead of from the previous
// start (every job's slot search range is a superset).
func TestConservativeNeverWorseThanFCFS(t *testing.T) {
	r := rng.New(1414)
	for trial := 0; trial < 100; trial++ {
		inst := randInstance(r, 8, 10)
		cons, err := Conservative{}.Schedule(inst)
		if err != nil {
			t.Fatal(err)
		}
		fcfs, err := FCFS{}.Schedule(inst)
		if err != nil {
			t.Fatal(err)
		}
		// Per-job dominance: conservative starts each job no later than
		// FCFS does (inductively: its timeline is always a superset of free
		// capacity... which holds because each conservative start <= the
		// FCFS start pointwise).
		for i := range inst.Jobs {
			if cons.StartOf(i) > fcfs.StartOf(i) {
				t.Fatalf("trial %d: conservative start %v > FCFS start %v for job %d",
					trial, cons.StartOf(i), fcfs.StartOf(i), i)
			}
		}
	}
}
