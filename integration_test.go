package repro

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gantt"
	"repro/internal/lower"
	"repro/internal/online"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/verify"
	"repro/internal/workload"
)

// TestEndToEndPipeline exercises the whole stack the way a downstream user
// would: synthesise a workload, serialise it as SWF, read it back, schedule
// the offline instance with every registered algorithm, verify and render
// each schedule, write one as JSON, and simulate the online policies over
// the same arrivals.
func TestEndToEndPipeline(t *testing.T) {
	const m = 48
	r := rng.New(112233)
	arrivals, err := workload.Synthetic(r.Split(), workload.SynthConfig{
		M: m, N: 80, MinRun: 5, MaxRun: 400, MaxWidthFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	reservations := workload.ReservationStream(r.Split(), m, 0.5, 5, 4000)

	// SWF round trip.
	tr := &workload.Trace{MaxProcs: m}
	for i, a := range arrivals {
		tr.Jobs = append(tr.Jobs, workload.SWFJob{
			ID: i + 1, Submit: int64(a.At), Wait: -1, Run: int64(a.Job.Len),
			Procs: a.Job.Procs, ReqProcs: a.Job.Procs, ReqTime: int64(a.Job.Len), Status: 1,
		})
	}
	var buf bytes.Buffer
	if err := workload.WriteSWF(&buf, tr); err != nil {
		t.Fatal(err)
	}
	parsed, err := workload.ParseSWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	inst := &core.Instance{Name: "swf", M: parsed.MaxProcs, Res: reservations}
	for _, j := range parsed.Jobs {
		if cj, ok := j.Job(len(inst.Jobs)); ok {
			inst.Jobs = append(inst.Jobs, cj)
		}
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(inst.Jobs) != len(arrivals) {
		t.Fatalf("SWF round trip lost jobs: %d vs %d", len(inst.Jobs), len(arrivals))
	}

	// Offline: every registered algorithm schedules, verifies, renders.
	lb := lower.Best(inst)
	for _, name := range sched.Names() {
		sc, err := sched.ByNameOn(name, "")
		if err != nil {
			t.Fatal(err)
		}
		s, err := sc.Schedule(inst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := verify.Verify(s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Makespan() < lb {
			t.Fatalf("%s beat the lower bound: %v < %v", name, s.Makespan(), lb)
		}
		chart, err := gantt.ASCII(s, 60)
		if err != nil {
			t.Fatalf("%s: gantt: %v", name, err)
		}
		if !strings.Contains(chart, "Cmax") {
			t.Fatalf("%s: malformed chart", name)
		}
	}

	// JSON of one schedule: one start per job.
	s, err := sched.NewLSRC(sched.LPT).Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	var sbuf bytes.Buffer
	if err := s.WriteJSON(&sbuf); err != nil {
		t.Fatal(err)
	}
	var written struct {
		Starts map[int]core.Time `json:"starts"`
	}
	if err := json.Unmarshal(sbuf.Bytes(), &written); err != nil {
		t.Fatal(err)
	}
	if len(written.Starts) != len(inst.Jobs) {
		t.Fatalf("schedule JSON holds %d starts for %d jobs", len(written.Starts), len(inst.Jobs))
	}

	// Online: simulate all policies over the same arrivals; batch-doubling
	// wrapper stays within its bound.
	for _, p := range []sim.Policy{sim.FCFSPolicy{}, sim.EASYPolicy{}, sim.GreedyPolicy{}} {
		res, err := sim.Run(m, reservations, arrivals, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if err := verify.Verify(simulatedSchedule(m, reservations, arrivals, res)); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
	batch, err := online.BatchSchedule(m, reservations, arrivals, sched.NewLSRC(sched.LPT))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := online.OfflineReference(m, reservations, arrivals, sched.NewLSRC(sched.LPT))
	if err != nil {
		t.Fatal(err)
	}
	var lastArr core.Time
	for _, a := range arrivals {
		if a.At > lastArr {
			lastArr = a.At
		}
	}
	if batch.Makespan > lastArr+2*ref {
		t.Fatalf("doubling bound violated: %v > %v + 2*%v", batch.Makespan, lastArr, ref)
	}
}

// simulatedSchedule is a simulation's outcome as a schedule over the
// instance its arrival stream makes (job IDs are arrival indices).
func simulatedSchedule(m int, res []core.Reservation, arrivals []workload.Arrival, run *sim.Result) *core.Schedule {
	inst := &core.Instance{M: m, Res: res}
	for i, a := range arrivals {
		j := a.Job
		j.ID = i
		inst.Jobs = append(inst.Jobs, j)
	}
	s := core.NewSchedule(inst)
	copy(s.Start, run.Starts)
	return s
}

// TestExactAgreesWithPortfolioOnSmallPipelines cross-checks the solver on
// derived small instances: the exact optimum never exceeds the makespan of
// any registered scheduler.
func TestExactAgreesWithPortfolioOnSmallPipelines(t *testing.T) {
	r := rng.New(445566)
	for trial := 0; trial < 15; trial++ {
		inst, err := workload.SyntheticInstance(r.Split(), workload.SynthConfig{
			M: 6, N: 7, MinRun: 1, MaxRun: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := exact.Solve(inst)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range sched.Names() {
			sc, err := sched.ByNameOn(name, "")
			if err != nil {
				t.Fatal(err)
			}
			s, err := sc.Schedule(inst)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, name, err)
			}
			if s.Makespan() < opt.Cmax {
				t.Fatalf("trial %d: %s's %v beat the exact optimum %v",
					trial, name, s.Makespan(), opt.Cmax)
			}
		}
	}
}
