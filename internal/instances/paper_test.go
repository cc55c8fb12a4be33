package instances

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/threepart"
	"repro/internal/verify"
)

func TestFromThreePartitionShape(t *testing.T) {
	tp := &threepart.Instance{Items: []int64{7, 7, 6, 8, 5, 7}, B: 20}
	inst, err := FromThreePartition(tp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.M != 1 || len(inst.Jobs) != 6 || len(inst.Res) != 2 {
		t.Fatalf("shape: m=%d jobs=%d res=%d", inst.M, len(inst.Jobs), len(inst.Res))
	}
	// First reservation at B=20, unit length; last at 2(B+1)-1=41 with
	// length rho*k*(B+1)+1 = 2*2*21+1 = 85, ending at 126 = (rho+1)k(B+1).
	if inst.Res[0].Start != 20 || inst.Res[0].Len != 1 {
		t.Fatalf("res0 = %+v", inst.Res[0])
	}
	if inst.Res[1].Start != 41 || inst.Res[1].Len != 85 {
		t.Fatalf("res1 = %+v", inst.Res[1])
	}
	if got, want := inst.Res[1].End(), Theorem1Wall(tp, 2); got != want {
		t.Fatalf("wall = %v, want %v", got, want)
	}
	if got := Theorem1Optimum(tp); got != 41 {
		t.Fatalf("optimum = %v, want 41", got)
	}
}

func TestFromThreePartitionRejects(t *testing.T) {
	tp := &threepart.Instance{Items: []int64{1, 2}, B: 3}
	if _, err := FromThreePartition(tp, 1); err == nil {
		t.Fatal("invalid 3-PARTITION accepted")
	}
	ok := &threepart.Instance{Items: []int64{7, 7, 6}, B: 20}
	if _, err := FromThreePartition(ok, 0); err == nil {
		t.Fatal("rho=0 accepted")
	}
}

func TestScheduleFromPartitionIsOptimal(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 10; trial++ {
		tp := threepart.GenerateYes(r, r.IntRange(2, 4), int64(r.IntRange(20, 60)))
		groups, ok := tp.Solve()
		if !ok {
			t.Fatal("YES instance unsolvable")
		}
		inst, err := FromThreePartition(tp, 3)
		if err != nil {
			t.Fatal(err)
		}
		s := scheduleFromPartition(inst, tp, groups)
		if err := verify.Verify(s); err != nil {
			t.Fatalf("witness schedule infeasible: %v", err)
		}
		if got, want := s.Makespan(), Theorem1Optimum(tp); got != want {
			t.Fatalf("witness makespan %v, want %v", got, want)
		}
	}
}

func TestTheorem1ExactOptimumMatches(t *testing.T) {
	// Cross-check the claimed optimum with the exact search (at m=1, the
	// subset DP over the completion frontier) for a small k.
	r := rng.New(21)
	tp := threepart.GenerateYes(r, 2, 24)
	inst, err := FromThreePartition(tp, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exact.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cmax != Theorem1Optimum(tp) {
		t.Fatalf("exact optimum %v, want %v", res.Cmax, Theorem1Optimum(tp))
	}
}

func TestTheorem1BadOrderJumpsTheWall(t *testing.T) {
	// A deliberately bad list order (largest first) on a YES instance with
	// heterogeneous items will typically fail to pack some window and pay
	// the wall. We only assert the dichotomy the proof uses: every LSRC
	// run either achieves the optimum or lands past the wall.
	r := rng.New(31)
	for trial := 0; trial < 20; trial++ {
		tp := threepart.GenerateYes(r, 3, 40)
		rho := 2
		inst, err := FromThreePartition(tp, rho)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []sched.Order{sched.FIFO, sched.LPT, sched.SPT, sched.RandomOrder(uint64(trial))} {
			s, err := sched.NewLSRC(o).Schedule(inst)
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.Verify(s); err != nil {
				t.Fatal(err)
			}
			cmax := s.Makespan()
			opt := Theorem1Optimum(tp)
			wall := Theorem1Wall(tp, rho)
			if cmax != opt && cmax < wall {
				t.Fatalf("trial %d order %s: makespan %v strictly between optimum %v and wall %v",
					trial, o.Name, cmax, opt, wall)
			}
		}
	}
}

func TestProp2InstanceShape(t *testing.T) {
	inst, err := Prop2Instance(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	// Figure 3: k=6 -> m=180.
	if inst.M != 180 {
		t.Fatalf("m = %d, want 180", inst.M)
	}
	if len(inst.Jobs) != 11 { // 6 small + 5 big
		t.Fatalf("jobs = %d, want 11", len(inst.Jobs))
	}
	if inst.Res[0].Procs != 120 { // (1-α)m = (2/3)·180
		t.Fatalf("reservation procs = %d, want 120", inst.Res[0].Procs)
	}
	alpha, ok := inst.Alpha()
	if !ok || math.Abs(alpha-Prop2Alpha(6)) > 1e-9 {
		t.Fatalf("alpha = %v %v, want %v", alpha, ok, Prop2Alpha(6))
	}
}

func TestProp2Figure3Numbers(t *testing.T) {
	// The paper's Figure 3 caption: C*max = 6 and Cmax = 5·6+1 = 31.
	k := 6
	inst, err := Prop2Instance(k)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.NewLSRC(sched.FIFO).Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Verify(s); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Makespan(), Prop2LSRCMakespan(k); got != want || want != 31 {
		t.Fatalf("LSRC makespan = %v, want %v (=31)", got, want)
	}
	if Prop2Optimum(k) != 6 {
		t.Fatalf("optimum = %v, want 6", Prop2Optimum(k))
	}
}

func TestProp2FamilyLSRCMakespan(t *testing.T) {
	for k := 2; k <= 10; k++ {
		inst, err := Prop2Instance(k)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.NewLSRC(sched.FIFO).Schedule(inst)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got, want := s.Makespan(), Prop2LSRCMakespan(k); got != want {
			t.Fatalf("k=%d: LSRC makespan %v, want %v", k, got, want)
		}
	}
}

func TestProp2OptimumWitness(t *testing.T) {
	// Construct the optimal schedule by hand for each k: big tasks and the
	// small-task chain all start within [0, k).
	for k := 2; k <= 8; k++ {
		inst, err := Prop2Instance(k)
		if err != nil {
			t.Fatal(err)
		}
		s := core.NewSchedule(inst)
		for i := 0; i < k; i++ { // small tasks chain: start at i (length 1)
			s.SetStart(i, core.Time(i))
		}
		for i := 0; i < k-1; i++ { // big tasks all at 0 (length k)
			s.SetStart(k+i, 0)
		}
		if err := verify.Verify(s); err != nil {
			t.Fatalf("k=%d: witness infeasible: %v", k, err)
		}
		if got, want := s.Makespan(), Prop2Optimum(k); got != want {
			t.Fatalf("k=%d: witness makespan %v, want %v", k, got, want)
		}
	}
}

func TestProp2ExactOptimumSmallK(t *testing.T) {
	for k := 2; k <= 3; k++ {
		inst, err := Prop2Instance(k)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exact.Solve(inst)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal || res.Cmax != Prop2Optimum(k) {
			t.Fatalf("k=%d: exact %v (optimal=%v), want %v", k, res.Cmax, res.Optimal, Prop2Optimum(k))
		}
	}
}

func TestProp2Rejects(t *testing.T) {
	if _, err := Prop2Instance(1); err == nil {
		t.Fatal("k=1 accepted")
	}
}

func TestGrahamAdversarial(t *testing.T) {
	for m := 1; m <= 8; m++ {
		inst, err := GrahamAdversarial(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Validate(); err != nil {
			t.Fatal(err)
		}
		s, err := sched.NewLSRC(sched.FIFO).Schedule(inst)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.Makespan(), GrahamLSRCMakespan(m); got != want {
			t.Fatalf("m=%d: LSRC %v, want %v", m, got, want)
		}
		// Witness for the optimum: long job on processor m-1 from 0, units
		// packed m-1 per tick... verify via exact for small m.
		if m <= 3 {
			res, err := exact.Solve(inst)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cmax != GrahamOptimum(m) {
				t.Fatalf("m=%d: exact %v, want %v", m, res.Cmax, GrahamOptimum(m))
			}
		}
	}
}

func TestFCFSPathological(t *testing.T) {
	for _, m := range []int{1, 2, 4, 6} {
		d := core.Time(50)
		inst, err := FCFSPathological(m, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Validate(); err != nil {
			t.Fatal(err)
		}
		s, err := (sched.FCFS{}).Schedule(inst)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.Makespan(), FCFSPathologicalMakespan(m, d); got != want {
			t.Fatalf("m=%d: FCFS %v, want %v", m, got, want)
		}
		// LSRC achieves the optimum on this family.
		l, err := sched.NewLSRC(sched.FIFO).Schedule(inst)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := l.Makespan(), FCFSPathologicalOptimum(m, d); got != want {
			t.Fatalf("m=%d: LSRC %v, want optimum %v", m, got, want)
		}
	}
}

func TestFCFSPathologicalRatioApproachesM(t *testing.T) {
	m := 5
	prev := 0.0
	for _, d := range []core.Time{10, 100, 1000, 10000} {
		ratio := float64(FCFSPathologicalMakespan(m, d)) / float64(FCFSPathologicalOptimum(m, d))
		if ratio <= prev {
			t.Fatalf("ratio not increasing with D: %v after %v", ratio, prev)
		}
		prev = ratio
	}
	if prev < 4.99 {
		t.Fatalf("ratio at D=10000 is %v; should approach m=5", prev)
	}
}

func TestFCFSPathologicalRejects(t *testing.T) {
	if _, err := FCFSPathological(0, 5); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := FCFSPathological(3, 0); err == nil {
		t.Fatal("D=0 accepted")
	}
}

// scheduleFromPartition builds the optimal schedule of the reduction
// instance corresponding to a 3-PARTITION solution: group l's three jobs
// run back-to-back inside window l. The caller verifies the schedule: a
// group that is not a triple summing to B leaves a job unscheduled or
// runs into the wall after its window.
func scheduleFromPartition(inst *core.Instance, tp *threepart.Instance, groups [][3]int) *core.Schedule {
	s := core.NewSchedule(inst)
	s.Algorithm = "theorem1-witness"
	for l, g := range groups {
		t := core.Time(l) * core.Time(tp.B+1) // window l starts at l(B+1)
		for _, itemIdx := range g {
			s.SetStart(itemIdx, t)
			t += core.Time(tp.Items[itemIdx])
		}
	}
	return s
}
