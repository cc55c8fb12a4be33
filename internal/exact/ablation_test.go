package exact

import (
	"testing"

	"repro/internal/core"
	"repro/internal/instances"
	"repro/internal/rng"
)

// ablationVariants enumerates the pruning configurations.
func ablationVariants() map[string]*Solver {
	return map[string]*Solver{
		"full":        {},
		"no-collapse": {DisableClassCollapse: true},
		"no-area":     {DisableAreaBound: true},
		"no-jobfit":   {DisableJobFitBound: true},
		"no-bounds":   {DisableAreaBound: true, DisableJobFitBound: true},
		"bare":        {DisableClassCollapse: true, DisableAreaBound: true, DisableJobFitBound: true},
	}
}

// TestAblationVariantsAgreeOnOptimum: every pruning configuration must
// return the same optimal makespan — pruning affects node counts only.
func TestAblationVariantsAgreeOnOptimum(t *testing.T) {
	r := rng.New(424242)
	for trial := 0; trial < 40; trial++ {
		m := r.IntRange(2, 5)
		inst := &core.Instance{M: m}
		n := r.IntRange(2, 6)
		for i := 0; i < n; i++ {
			inst.Jobs = append(inst.Jobs, core.Job{
				ID: i, Procs: r.IntRange(1, m), Len: core.Time(r.IntRange(1, 6)),
			})
		}
		if r.Bool(0.5) {
			inst.Res = append(inst.Res, core.Reservation{
				ID: 0, Procs: r.IntRange(1, m), Start: core.Time(r.Intn(6)),
				Len: core.Time(r.IntRange(1, 5)),
			})
		}
		var want core.Time = -1
		for name, sv := range ablationVariants() {
			res, err := sv.Solve(inst)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if !res.Optimal {
				t.Fatalf("trial %d %s: not optimal", trial, name)
			}
			if want == -1 {
				want = res.Cmax
			} else if res.Cmax != want {
				t.Fatalf("trial %d: %s found %v, others %v\ninstance: %+v",
					trial, name, res.Cmax, want, inst)
			}
		}
	}
}

// TestClassCollapseShrinksSearch: on a duplicate-heavy instance the class
// collapse must visit far fewer nodes.
func TestClassCollapseShrinksSearch(t *testing.T) {
	inst := &core.Instance{M: 3}
	for i := 0; i < 9; i++ {
		inst.Jobs = append(inst.Jobs, core.Job{ID: i, Procs: 2, Len: 4})
	}
	full, err := (&Solver{}).Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := (&Solver{DisableClassCollapse: true, MaxNodes: 5_000_000}).Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if full.Cmax != bare.Cmax {
		t.Fatalf("optima differ: %v vs %v", full.Cmax, bare.Cmax)
	}
	if full.Nodes*2 > bare.Nodes {
		t.Fatalf("collapse saved too little: %d vs %d nodes", full.Nodes, bare.Nodes)
	}
}

// TestBoundsPrune: dropping the bounds must not change the optimum but
// should not *reduce* the node count.
func TestBoundsPrune(t *testing.T) {
	r := rng.New(777)
	inst := instances.RandomRigid(r, instances.RigidConfig{M: 4, N: 8, MaxLen: 9})
	full, err := (&Solver{}).Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := (&Solver{DisableAreaBound: true, DisableJobFitBound: true, MaxNodes: 20_000_000}).Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if full.Cmax != loose.Cmax {
		t.Fatalf("optima differ: %v vs %v", full.Cmax, loose.Cmax)
	}
	if loose.Nodes < full.Nodes {
		t.Fatalf("pruned search visited MORE nodes (%d) than unpruned (%d)", full.Nodes, loose.Nodes)
	}
}

// BenchmarkExactAblation quantifies each pruning device on a shared
// instance — the exact solver's side of the expt "ablation" experiment. Seed 3
// yields an instance the heuristics do not solve (full search: ~4.6k
// nodes; with everything disabled: ~2M nodes).
func BenchmarkExactAblation(b *testing.B) {
	r := rng.New(3)
	inst := &core.Instance{M: 4}
	for i := 0; i < 10; i++ {
		inst.Jobs = append(inst.Jobs, core.Job{
			ID: i, Procs: r.IntRange(1, 4), Len: core.Time(r.IntRange(1, 7)),
		})
	}
	inst.Res = []core.Reservation{{ID: 0, Procs: 2, Start: 4, Len: 6}}
	for _, name := range []string{"full", "no-collapse", "no-area", "no-jobfit", "no-bounds"} {
		sv := ablationVariants()[name]
		sv.MaxNodes = 50_000_000
		b.Run(name, func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				res, err := sv.Solve(inst)
				if err != nil {
					b.Fatal(err)
				}
				nodes = res.Nodes
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}
