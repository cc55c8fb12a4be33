package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/verify"
	"repro/internal/workload"
)

func arrivalsFixture() []workload.Arrival {
	return []workload.Arrival{
		{Job: core.Job{ID: 0, Procs: 2, Len: 10}, At: 0},
		{Job: core.Job{ID: 1, Procs: 4, Len: 5}, At: 0},
		{Job: core.Job{ID: 2, Procs: 2, Len: 5}, At: 0},
	}
}

func TestRunGreedy(t *testing.T) {
	res, err := Run(4, nil, arrivalsFixture(), GreedyPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// Greedy = offline LSRC on simultaneous arrivals: jobs 0,2 at 0; job 1
	// at 10. Makespan 15.
	if res.Starts[0] != 0 || res.Starts[2] != 0 || res.Starts[1] != 10 {
		t.Fatalf("starts = %v", res.Starts)
	}
	if res.Metrics.Makespan != 15 {
		t.Fatalf("makespan = %v", res.Metrics.Makespan)
	}
}

func TestRunFCFS(t *testing.T) {
	res, err := Run(4, nil, arrivalsFixture(), FCFSPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// Head-of-line: job 2 waits behind job 1.
	if res.Starts[1] != 10 || res.Starts[2] != 15 {
		t.Fatalf("starts = %v", res.Starts)
	}
	if res.Metrics.Makespan != 20 {
		t.Fatalf("makespan = %v", res.Metrics.Makespan)
	}
}

func TestRunEASY(t *testing.T) {
	// Job 2 (short) backfills; a long job would not (see offline tests).
	res, err := Run(4, nil, arrivalsFixture(), EASYPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Starts[2] != 0 || res.Starts[1] != 10 {
		t.Fatalf("starts = %v", res.Starts)
	}
}

func TestEASYDoesNotDelayHeadOnline(t *testing.T) {
	arr := []workload.Arrival{
		{Job: core.Job{ID: 0, Procs: 2, Len: 10}, At: 0},
		{Job: core.Job{ID: 1, Procs: 4, Len: 5}, At: 0},
		{Job: core.Job{ID: 2, Procs: 2, Len: 20}, At: 0}, // would delay head
	}
	res, err := Run(4, nil, arr, EASYPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Starts[1] != 10 {
		t.Fatalf("head delayed: starts = %v", res.Starts)
	}
	if res.Starts[2] != 15 {
		t.Fatalf("long job should wait: starts = %v", res.Starts)
	}
}

func TestArrivalsGateDispatch(t *testing.T) {
	// A later arrival cannot run before it arrives even if the machine is
	// idle.
	arr := []workload.Arrival{
		{Job: core.Job{ID: 0, Procs: 1, Len: 2}, At: 0},
		{Job: core.Job{ID: 1, Procs: 1, Len: 2}, At: 50},
	}
	res, err := Run(4, nil, arr, GreedyPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Starts[1] != 50 {
		t.Fatalf("job started before arrival: %v", res.Starts)
	}
}

func TestRunWithReservations(t *testing.T) {
	arr := []workload.Arrival{
		{Job: core.Job{ID: 0, Procs: 3, Len: 10}, At: 0},
	}
	rsv := []core.Reservation{{ID: 0, Procs: 2, Start: 5, Len: 5}}
	res, err := Run(4, rsv, arr, GreedyPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Starts[0] != 10 {
		t.Fatalf("start = %v, want 10", res.Starts[0])
	}
}

func TestRunStuck(t *testing.T) {
	arr := []workload.Arrival{{Job: core.Job{ID: 0, Procs: 4, Len: 2}, At: 0}}
	rsv := []core.Reservation{{ID: 0, Procs: 1, Start: 0, Len: core.Infinity}}
	if _, err := Run(4, rsv, arr, GreedyPolicy{}); !errors.Is(err, ErrStuck) {
		t.Fatalf("got %v", err)
	}
}

func TestMetrics(t *testing.T) {
	arr := []workload.Arrival{
		{Job: core.Job{ID: 0, Procs: 4, Len: 10}, At: 0},
		{Job: core.Job{ID: 1, Procs: 4, Len: 10}, At: 0},
	}
	res, err := Run(4, nil, arr, GreedyPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Makespan != 20 || m.Jobs != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	if math.Abs(m.Utilization-1.0) > 1e-9 {
		t.Fatalf("utilization = %v, want 1", m.Utilization)
	}
	if m.AvgWait != 5 || m.MaxWait != 10 {
		t.Fatalf("wait stats = %v/%v", m.AvgWait, m.MaxWait)
	}
	// BSLD: job0 (wait 0, run 10): 1; job1 (wait 10, run 10): 2 -> 1.5.
	if math.Abs(m.AvgBoundedSlowdown-1.5) > 1e-9 {
		t.Fatalf("bsld = %v", m.AvgBoundedSlowdown)
	}
}

func TestEffectiveUtilizationExcludesReservedArea(t *testing.T) {
	arr := []workload.Arrival{{Job: core.Job{ID: 0, Procs: 2, Len: 10}, At: 0}}
	rsv := []core.Reservation{{ID: 0, Procs: 2, Start: 0, Len: 10}}
	res, err := Run(4, rsv, arr, GreedyPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if math.Abs(m.Utilization-0.5) > 1e-9 {
		t.Fatalf("raw utilization = %v", m.Utilization)
	}
	if math.Abs(m.EffectiveUtilization-1.0) > 1e-9 {
		t.Fatalf("effective utilization = %v", m.EffectiveUtilization)
	}
}

// simulatedScheduleFeasible converts a sim result into a core schedule and
// verifies it.
// simulatedSchedule is a run's outcome as a schedule over the instance the
// arrival stream makes (job IDs are arrival indices).
func simulatedSchedule(m int, rsv []core.Reservation, arr []workload.Arrival, res *Result) *core.Schedule {
	inst := &core.Instance{M: m, Res: rsv}
	for i, a := range arr {
		j := a.Job
		j.ID = i
		inst.Jobs = append(inst.Jobs, j)
	}
	s := core.NewSchedule(inst)
	copy(s.Start, res.Starts)
	s.Algorithm = res.Metrics.Policy
	return s
}

func simulatedScheduleFeasible(t *testing.T, m int, rsv []core.Reservation, arr []workload.Arrival, res *Result) {
	t.Helper()
	if err := verify.Verify(simulatedSchedule(m, rsv, arr, res)); err != nil {
		t.Fatalf("simulated schedule infeasible: %v", err)
	}
	// No job before its arrival.
	for i := range arr {
		if res.Starts[i] < arr[i].At {
			t.Fatalf("job %d started %v before arrival %v", i, res.Starts[i], arr[i].At)
		}
	}
}

func TestAllPoliciesFeasibleOnRandomStreams(t *testing.T) {
	r := rng.New(13579)
	policies := []Policy{GreedyPolicy{}, FCFSPolicy{}, EASYPolicy{}}
	for trial := 0; trial < 40; trial++ {
		m := r.IntRange(2, 16)
		arr, err := workload.Synthetic(r.Split(), workload.SynthConfig{
			M: m, N: r.IntRange(1, 25), MinRun: 1, MaxRun: 50, MeanInterArrival: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		rsv := workload.ReservationStream(r.Split(), m, 0.5, r.IntRange(0, 3), 200)
		for _, p := range policies {
			res, err := Run(m, rsv, arr, p)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, p.Name(), err)
			}
			simulatedScheduleFeasible(t, m, rsv, arr, res)
		}
	}
}

func TestGreedyMatchesOfflineLSRCWhenAllArriveAtZero(t *testing.T) {
	// With simultaneous arrivals the online greedy policy IS offline LSRC.
	r := rng.New(2468)
	for trial := 0; trial < 30; trial++ {
		m := r.IntRange(2, 8)
		var arr []workload.Arrival
		inst := &core.Instance{M: m}
		n := r.IntRange(1, 10)
		for i := 0; i < n; i++ {
			j := core.Job{ID: i, Procs: r.IntRange(1, m), Len: core.Time(r.IntRange(1, 12))}
			inst.Jobs = append(inst.Jobs, j)
			arr = append(arr, workload.Arrival{Job: j, At: 0})
		}
		res, err := Run(m, nil, arr, GreedyPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		offline, err := sched.NewLSRC(sched.FIFO).Schedule(inst)
		if err != nil {
			t.Fatal(err)
		}
		for i := range inst.Jobs {
			if res.Starts[i] != offline.StartOf(i) {
				t.Fatalf("trial %d job %d: sim %v vs offline %v", trial, i, res.Starts[i], offline.StartOf(i))
			}
		}
	}
}

func TestAsScheduleVerifies(t *testing.T) {
	arr := arrivalsFixture()
	rsv := []core.Reservation{{ID: 0, Procs: 1, Start: 3, Len: 4}}
	res, err := Run(4, rsv, arr, EASYPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	s := simulatedSchedule(4, rsv, arr, res)
	if err := verify.Verify(s); err != nil {
		t.Fatalf("simulated schedule infeasible: %v", err)
	}
	if s.Algorithm != "easy-bf" {
		t.Fatalf("algorithm = %q", s.Algorithm)
	}
	if s.Makespan() != res.Metrics.Makespan {
		t.Fatalf("makespan mismatch: %v vs %v", s.Makespan(), res.Metrics.Makespan)
	}
}

func TestPolicyNames(t *testing.T) {
	if (GreedyPolicy{}).Name() != "greedy-lsrc" ||
		(FCFSPolicy{}).Name() != "fcfs" ||
		(EASYPolicy{}).Name() != "easy-bf" {
		t.Fatal("policy names wrong")
	}
}
