package sched

import (
	"testing"

	"repro/internal/core"
	"repro/internal/instances"
	"repro/internal/rng"
	"repro/internal/workload"
)

// TestBackendsProduceIdenticalSchedules runs every registered algorithm on
// random reservation-laden instances under both capacity backends and
// requires start-for-start identical schedules: the CapacityIndex seam
// must be behaviour-preserving, not just makespan-preserving.
func TestBackendsProduceIdenticalSchedules(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		r := rng.New(seed)
		inst, err := workload.SyntheticInstance(r.Split(), workload.SynthConfig{
			M: 32, N: 60, MinRun: 1, MaxRun: 200, MaxWidthFrac: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		inst.Res = workload.ReservationStream(r.Split(), 32, 0.5, 8, 2000)
		for _, name := range Names() {
			array, err := ByNameOn(name, "array")
			if err != nil {
				t.Fatal(err)
			}
			tree, err := ByNameOn(name, "tree")
			if err != nil {
				t.Fatal(err)
			}
			sa, errA := array.Schedule(inst)
			st, errT := tree.Schedule(inst)
			if (errA == nil) != (errT == nil) {
				t.Fatalf("seed %d %s: array err %v, tree err %v", seed, name, errA, errT)
			}
			if errA != nil {
				continue
			}
			if sa.Makespan() != st.Makespan() {
				t.Fatalf("seed %d %s: makespan %v (array) vs %v (tree)",
					seed, name, sa.Makespan(), st.Makespan())
			}
			for i := range sa.Start {
				if sa.Start[i] != st.Start[i] {
					t.Fatalf("seed %d %s: job %d starts at %v (array) vs %v (tree)",
						seed, name, i, sa.Start[i], st.Start[i])
				}
			}
		}
	}
}

// TestBackendOnAdversarialInstances covers the paper's hand-built worst
// cases, whose reservation structure (staircases, infinite tails) stresses
// segment handling more than random draws.
func TestBackendOnAdversarialInstances(t *testing.T) {
	inst, err := instances.Prop2Instance(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lsrc-fifo", "easy-bf", "cons-bf"} {
		array, _ := ByNameOn(name, "array")
		tree, _ := ByNameOn(name, "tree")
		sa, errA := array.Schedule(inst)
		st, errT := tree.Schedule(inst)
		if errA != nil || errT != nil {
			t.Fatalf("%s: array err %v, tree err %v", name, errA, errT)
		}
		if sa.Makespan() != st.Makespan() {
			t.Fatalf("%s: makespan diverges %v vs %v", name, sa.Makespan(), st.Makespan())
		}
	}
}

func TestByNameOnValidatesBackend(t *testing.T) {
	if _, err := ByNameOn("lsrc", "btree-of-wishes"); err == nil {
		t.Fatal("want error for unknown backend")
	}
	if _, err := ByNameOn("no-such-alg", "tree"); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
	sc, err := ByNameOn("lsrc-lpt", "tree")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name() != "lsrc-lpt" {
		t.Fatalf("backend choice must not change the algorithm name, got %q", sc.Name())
	}
	l, ok := sc.(*LSRC)
	if !ok || l.Backend != "tree" {
		t.Fatalf("ByNameOn did not thread the backend: %#v", sc)
	}
}

// TestByNameDefaultsToArray pins the default: an empty backend name builds
// the scheduler on the array index.
func TestByNameDefaultsToArray(t *testing.T) {
	sc, err := ByNameOn("fcfs", "")
	if err != nil {
		t.Fatal(err)
	}
	f, ok := sc.(FCFS)
	if !ok || f.Backend != "" {
		t.Fatalf("ByNameOn must build the default backend, got %#v", sc)
	}
	inst := &core.Instance{
		M:    4,
		Jobs: []core.Job{{ID: 0, Procs: 2, Len: 3}},
		Res:  []core.Reservation{{ID: 0, Procs: 4, Start: 0, Len: 3}},
	}
	s, err := sc.Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	if s.StartOf(0) != 3 {
		t.Fatalf("job should start when the reservation ends, got %v", s.StartOf(0))
	}
}
