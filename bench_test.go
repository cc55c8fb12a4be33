// Root-level benchmark harness: one benchmark per figure/claim of the
// paper, keyed by the experiment ids internal/expt registers (expt.List
// returns them; `cmd/resexp -run <id>` runs one). Each benchmark re-runs
// the registered experiment end-to-end (instance construction, scheduling,
// reference optimum, checks) and reports the experiment's headline number
// as a custom metric so `go test -bench=.` output reads like the paper's
// evaluation:
//
//	BenchmarkFigure3LowerBound    ... ratio=5.1667 (the Figure 3 ratio 31/6)
//
// Scale note: quick-mode grids are used so a full bench sweep stays under a
// minute; `cmd/resexp -run all` runs the full grids.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/expt"
	"repro/internal/instances"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/threepart"
	"repro/internal/workload"
)

// benchCfg is the shared experiment configuration for benches.
func benchCfg() expt.Config { return expt.Config{Seed: 20070326, Quick: true} }

// runExperiment executes a registered experiment b.N times, failing the
// bench if any paper-vs-measured check fails.
func runExperiment(b *testing.B, id string) *expt.Report {
	b.Helper()
	e, ok := expt.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var last *expt.Report
	for i := 0; i < b.N; i++ {
		r, err := e.Run(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if !r.AllPassed() {
			b.Fatalf("%s: checks failed:\n%s", id, r.Render())
		}
		last = r
	}
	return last
}

// BenchmarkFigure1Theorem1 regenerates Figure 1 / Theorem 1: the
// 3-PARTITION reduction on which LSRC's ratio grows without bound. The
// reported metric is the LSRC-LPT ratio at rho=2 on the fixed hard
// instance.
func BenchmarkFigure1Theorem1(b *testing.B) {
	runExperiment(b, "fig1")
	tp := &threepart.Instance{Items: []int64{12, 10, 10, 10, 9, 9}, B: 30}
	inst, err := instances.FromThreePartition(tp, 2)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.NewLSRC(sched.LPT).Schedule(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(s.Makespan())/float64(instances.Theorem1Optimum(tp)), "ratio@rho=2")
}

// BenchmarkFigure2NonIncreasing regenerates Proposition 1 / Figure 2:
// random non-increasing staircases never push LSRC beyond
// (2 - 1/m(C*))·C*.
func BenchmarkFigure2NonIncreasing(b *testing.B) {
	runExperiment(b, "fig2")
}

// BenchmarkFigure3LowerBound regenerates Proposition 2 / Figure 3 and
// reports the k=6 ratio (the paper's 31/6).
func BenchmarkFigure3LowerBound(b *testing.B) {
	runExperiment(b, "fig3")
	inst, err := instances.Prop2Instance(6)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.NewLSRC(sched.FIFO).Schedule(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(s.Makespan())/float64(instances.Prop2Optimum(6)), "figure3-ratio")
}

// BenchmarkFigure4Bounds regenerates the Figure 4 curves and reports the
// upper/lower gap at α = 1/2.
func BenchmarkFigure4Bounds(b *testing.B) {
	runExperiment(b, "fig4")
	b.ReportMetric(bounds.Gap(0.5), "gap@alpha=0.5")
}

// BenchmarkGrahamBound regenerates Theorem 2 (appendix): the 2 - 1/m
// guarantee, tight on the adversarial family.
func BenchmarkGrahamBound(b *testing.B) {
	runExperiment(b, "graham")
	b.ReportMetric(bounds.Graham(8), "bound@m=8")
}

// BenchmarkFCFSNoGuarantee regenerates the §2.2 remark: FCFS ratio
// approaches m. Reports the measured FCFS ratio at m=6, D=1000.
func BenchmarkFCFSNoGuarantee(b *testing.B) {
	runExperiment(b, "fcfs")
	m, d := 6, core.Time(1000)
	ratio := float64(instances.FCFSPathologicalMakespan(m, d)) /
		float64(instances.FCFSPathologicalOptimum(m, d))
	b.ReportMetric(ratio, "fcfs-ratio@m=6")
}

// BenchmarkAlphaSweep regenerates the Proposition 3 sweep: empirical LSRC
// ratios vs each instance's 2/α′ guarantee (α′ = Instance.Alpha()) across
// the α grid.
func BenchmarkAlphaSweep(b *testing.B) {
	runExperiment(b, "alpha")
	b.ReportMetric(bounds.AlphaUpper(0.5), "guarantee@alpha=0.5")
}

// BenchmarkPriorityAblation regenerates the conclusion's ablation: priority
// rules and shelf packing on realistic workloads.
func BenchmarkPriorityAblation(b *testing.B) {
	runExperiment(b, "ablation")
}

// BenchmarkOnlineBatch regenerates the §2.1 batch-doubling claim.
func BenchmarkOnlineBatch(b *testing.B) {
	runExperiment(b, "online")
}

// BenchmarkAdversarialSearch runs the extension experiment that hill-climbs
// for worst-case LSRC ratios on small α-restricted instances.
func BenchmarkAdversarialSearch(b *testing.B) {
	runExperiment(b, "search")
}

// BenchmarkScaleSweep runs the implementation-scale experiment (LSRC
// quality and throughput at growing m and n).
func BenchmarkScaleSweep(b *testing.B) {
	runExperiment(b, "scale")
}

// --- micro-benchmarks of the core machinery at realistic scale ---

// BenchmarkLSRCLargeWorkload measures offline LSRC throughput on a
// 1024-processor cluster with 5000 synthetic jobs and reservations.
func BenchmarkLSRCLargeWorkload(b *testing.B) {
	r := rng.New(1)
	inst, err := workload.SyntheticInstance(r.Split(), workload.SynthConfig{
		M: 1024, N: 5000, MinRun: 10, MaxRun: 5000, MaxWidthFrac: 0.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	inst.Res = workload.ReservationStream(r.Split(), 1024, 0.5, 50, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sched.NewLSRC(sched.LPT).Schedule(inst)
		if err != nil {
			b.Fatal(err)
		}
		if s.Makespan() == 0 {
			b.Fatal("empty schedule")
		}
	}
	b.ReportMetric(float64(len(inst.Jobs)), "jobs")
}

// BenchmarkBackfillVariantsLargeWorkload compares the policies' cost on a
// shared 512-proc workload.
func BenchmarkBackfillVariantsLargeWorkload(b *testing.B) {
	r := rng.New(2)
	inst, err := workload.SyntheticInstance(r.Split(), workload.SynthConfig{
		M: 512, N: 2000, MinRun: 10, MaxRun: 2000, MaxWidthFrac: 0.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, sc := range []sched.Scheduler{
		sched.NewLSRC(sched.FIFO), sched.FCFS{}, sched.Conservative{}, sched.EASY{},
		&sched.Shelf{Fit: sched.FirstFit},
	} {
		b.Run(sc.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sc.Schedule(inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- capacity-index backend comparison (array Timeline vs restree) ---

// capacityBenchSizes are the pre-loaded reservation counts for the
// backend comparison.
var capacityBenchSizes = []int{1_000, 10_000, 100_000}

// capacityBenchM is the machine size for the backend benches: large enough
// that reservation widths vary by three orders of magnitude.
const capacityBenchM = 1024

// loadedIndex builds a capacity index pre-loaded with nRes reservations at
// increasing times (so setup itself stays cheap on the array backend —
// appends, not mid-array inserts) and returns it with the loaded horizon.
// A tenth of the reservations are near-full-machine holds, so wide queries
// see real blocking segments and earliest-fit pruning has work to skip.
func loadedIndex(tb testing.TB, backend string, nRes int) (profile.CapacityIndex, core.Time) {
	tb.Helper()
	idx, err := profile.NewIndex(backend, capacityBenchM)
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(0xC0FFEE)
	at := core.Time(0)
	for i := 0; i < nRes; i++ {
		at += core.Time(r.Intn(20) + 1)
		length := core.Time(r.Intn(50) + 1)
		q := r.Intn(capacityBenchM/2) + 1
		if i%10 == 0 {
			q = capacityBenchM - r.Intn(8) - 1 // near-full hold
		}
		if err := idx.Commit(at, length, q); err != nil {
			tb.Fatal(err)
		}
		at += length
	}
	return idx, at
}

// earliestFitCommitLoop is one op of the benchmark workload: an
// earliest-fit query from a random ready time followed by a commit at the
// found slot and a release (so the index stays at steady state).
func earliestFitCommitLoop(tb testing.TB, idx profile.CapacityIndex, r *rng.PCG, horizon core.Time) {
	q := r.Intn(capacityBenchM) + 1
	dur := core.Time(r.Intn(100) + 1)
	ready := core.Time(r.Int63n(int64(horizon)))
	s, ok := idx.FindSlot(ready, q, dur)
	if !ok {
		tb.Fatalf("no slot for q=%d", q)
	}
	if err := idx.Commit(s, dur, q); err != nil {
		tb.Fatal(err)
	}
	if err := idx.Release(s, dur, q); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkCapacityIndex compares the two backends on the hot scheduling
// loop — FindSlot + Commit + Release — at growing reservation counts.
// The array backend pays O(n) per op (linear slot scans, mid-array
// memmoves); the tree backend pays two binary searches, an edit inside one
// 64-slot leaf and the leaves an earliest-fit cannot step over, which is
// the array/tree ratio README.md quotes. It is the one figure bench/ does
// not measure (the service has one index), so it is read from this
// benchmark's output, not from a recorded file.
func BenchmarkCapacityIndex(b *testing.B) {
	for _, backend := range []string{"array", "tree"} {
		for _, n := range capacityBenchSizes {
			b.Run(fmt.Sprintf("backend=%s/n=%d", backend, n), func(b *testing.B) {
				idx, horizon := loadedIndex(b, backend, n)
				r := rng.New(7)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					earliestFitCommitLoop(b, idx, r, horizon)
				}
			})
		}
	}
}

// BenchmarkExactSolver measures the branch-and-bound on a 9-job instance.
func BenchmarkExactSolver(b *testing.B) {
	r := rng.New(3)
	inst := instances.RandomRigid(r, instances.RigidConfig{M: 5, N: 9, MaxLen: 9})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exact.Solve(inst)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Optimal {
			b.Fatal("not optimal")
		}
	}
}
