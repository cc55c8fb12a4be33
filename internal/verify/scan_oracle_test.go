package verify

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

// scanAssign is the per-processor scan, kept as an oracle for the bitset
// sweep: the same events in the same total order (time, frees before
// takes, occupation index) by a comparator through sort.Slice, a boolean
// per processor, and a scan of all m of them at every start.
func scanAssign(s *core.Schedule) (*Assignment, error) {
	type scanEvent struct {
		at    core.Time
		start bool
		isJob bool
		idx   int
	}
	inst := s.Inst
	events := make([]scanEvent, 0, 2*(len(inst.Jobs)+len(inst.Res)))
	for i, t := range s.Start {
		if t == core.Unscheduled {
			return nil, fmt.Errorf("%w: job %d unscheduled", ErrInfeasible, inst.Jobs[i].ID)
		}
		events = append(events,
			scanEvent{t, true, true, i},
			scanEvent{t + inst.Jobs[i].Len, false, true, i})
	}
	for i, r := range inst.Res {
		events = append(events, scanEvent{r.Start, true, false, i})
		if r.End() != core.Infinity {
			events = append(events, scanEvent{r.End(), false, false, i})
		}
	}
	occ := func(e scanEvent) int { // occupation index: jobs, then reservations
		if e.isJob {
			return e.idx
		}
		return len(inst.Jobs) + e.idx
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		if events[a].start != events[b].start {
			return !events[a].start
		}
		return occ(events[a]) < occ(events[b])
	})
	free := make([]bool, inst.M)
	for i := range free {
		free[i] = true
	}
	takeLowest := func(q int) ([]int, bool) {
		out := make([]int, 0, q)
		for p := 0; p < inst.M && len(out) < q; p++ {
			if free[p] {
				out = append(out, p)
				free[p] = false
			}
		}
		if len(out) < q {
			for _, p := range out {
				free[p] = true
			}
			return nil, false
		}
		return out, true
	}
	asg := &Assignment{
		JobProcs: make([][]int, len(inst.Jobs)),
		ResProcs: make([][]int, len(inst.Res)),
	}
	for _, ev := range events {
		var procs *[]int
		var q, id int
		what := "job"
		if ev.isJob {
			procs, q, id = &asg.JobProcs[ev.idx], inst.Jobs[ev.idx].Procs, inst.Jobs[ev.idx].ID
		} else {
			procs, q, what, id = &asg.ResProcs[ev.idx], inst.Res[ev.idx].Procs, "reservation", inst.Res[ev.idx].ID
		}
		if !ev.start {
			for _, p := range *procs {
				free[p] = true
			}
			continue
		}
		got, ok := takeLowest(q)
		if !ok {
			return nil, fmt.Errorf("%w: no %d free processors for %s %d at t=%v",
				ErrInfeasible, q, what, id, ev.at)
		}
		*procs = got
	}
	return asg, nil
}

// matchScan fails t unless AssignProcessors and the scan give the same
// lists, or the same error text.
func matchScan(t *testing.T, label string, s *core.Schedule) {
	t.Helper()
	got, gotErr := AssignProcessors(s)
	want, wantErr := scanAssign(s)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: AssignProcessors error %v, scan %v", label, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: AssignProcessors\n got  %+v\n want %+v", label, got, want)
	}
	if _, err := sweep(s); (err == nil) != (gotErr == nil) || (err != nil && err.Error() != gotErr.Error()) {
		t.Fatalf("%s: sweep error %v, AssignProcessors %v", label, err, gotErr)
	}
}

// TestAssignProcessorsMatchesScanOnLSRC: on seeded LSRC schedules of
// α-restricted instances the bitset sweep hands every job and every
// reservation the processors the scan did.
func TestAssignProcessorsMatchesScanOnLSRC(t *testing.T) {
	alg, err := sched.ByNameOn("lsrc-lpt", "")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 24; seed++ {
		r := rng.New(seed)
		m := []int{7, 64, 65, 130, 512}[seed%5]
		inst, err := workload.SyntheticInstance(r.Split(), workload.SynthConfig{M: m, N: 150, MaxWidthFrac: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		inst.Res = workload.ReservationStream(r.Split(), m, 0.5, 12, 20000)
		s, err := alg.Schedule(inst)
		if err != nil {
			t.Fatal(err)
		}
		matchScan(t, fmt.Sprintf("seed %d m=%d", seed, m), s)
		if err := Verify(s); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// BenchmarkVerify verifies one LSRC schedule of an lsrc-batch instance:
// 600 jobs and 20 reservations on 512 processors.
func BenchmarkVerify(b *testing.B) {
	alg, err := sched.ByNameOn("lsrc-lpt", "")
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	inst, err := workload.SyntheticInstance(r.Split(), workload.SynthConfig{M: 512, N: 600, MaxWidthFrac: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	inst.Res = workload.ReservationStream(r.Split(), 512, 0.5, 20, 200000)
	s, err := alg.Schedule(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(s); err != nil {
			b.Fatal(err)
		}
	}
}

// scanCases are constructed schedules around the sweep's edges: ties of
// ends and starts, reservations that never end, overloads, and machine
// sizes on either side of the bitset's 64-bit words.
func scanCases() map[string]*core.Schedule {
	out := map[string]*core.Schedule{}
	for _, m := range []int{1, 63, 64, 65, 100} {
		half := max(1, m/2)
		// Ends and starts at equal times: each job ends where the next two
		// start, and a reservation ends where a full-width job starts.
		inst := &core.Instance{M: m,
			Jobs: []core.Job{
				{ID: 0, Procs: half, Len: 5},
				{ID: 1, Procs: m - half, Len: 5},
				{ID: 2, Procs: half, Len: 3},
				{ID: 3, Procs: 1, Len: 3},
				{ID: 4, Procs: m, Len: 2},
			},
			Res: []core.Reservation{{ID: 0, Procs: 1, Start: 8, Len: 2}},
		}
		if m == 1 {
			inst.Jobs[1].Procs = 1
		}
		s := core.NewSchedule(inst)
		s.Start = []core.Time{0, 0, 5, 5, 10}
		if m == 1 {
			s.Start = []core.Time{0, 5, 10, 13, 16}
			inst.Res[0].Start = 18
		}
		out[fmt.Sprintf("ties-m%d", m)] = s

		// A reservation that never ends beside jobs that fill the rest.
		inst = &core.Instance{M: m,
			Jobs: []core.Job{{ID: 0, Procs: 1, Len: 4}, {ID: 1, Procs: 1, Len: 4}},
			Res:  []core.Reservation{{ID: 0, Procs: m - 1, Start: 2, Len: core.Infinity}},
		}
		if m == 1 {
			inst.Res[0].Procs = 1
			inst.Res[0].Start = 8
		}
		s = core.NewSchedule(inst)
		s.Start = []core.Time{0, 4}
		out[fmt.Sprintf("infinite-m%d", m)] = s

		// An overload: the second full-width occupation starts before the
		// first ends; the third names a reservation.
		inst = &core.Instance{M: m,
			Jobs: []core.Job{{ID: 7, Procs: m, Len: 4}, {ID: 8, Procs: half, Len: 4}},
			Res:  []core.Reservation{{ID: 3, Procs: m, Start: 10, Len: core.Infinity}},
		}
		s = core.NewSchedule(inst)
		s.Start = []core.Time{0, 3}
		out[fmt.Sprintf("overload-job-m%d", m)] = s
		s = core.NewSchedule(inst)
		s.Start = []core.Time{0, 9}
		out[fmt.Sprintf("overload-reservation-m%d", m)] = s
	}
	return out
}

// TestAssignProcessorsMatchesScanOnEdges runs the constructed cases.
func TestAssignProcessorsMatchesScanOnEdges(t *testing.T) {
	for name, s := range scanCases() {
		matchScan(t, name, s)
		_, err := AssignProcessors(s)
		if overload := strings.HasPrefix(name, "overload"); (err != nil) != overload {
			t.Errorf("%s: AssignProcessors error %v, want an overload: %v", name, err, overload)
		}
	}
}

// FuzzAssignProcessorsMatchesScan: on any schedule the fuzzer builds, the
// bitset sweep agrees with the scan (lists or error text), its verdict
// agrees with the aggregate Check, and so does Verify's.
//
// The input is m-1 (mod 130, so m crosses two word edges) and three bytes
// per occupation: kind (low bit: reservation) and width-1, length-1 (mod
// 16; 0xff makes a reservation endless), and start (mod 32). The
// committed seeds are in testdata/fuzz/FuzzAssignProcessorsMatchesScan.
func FuzzAssignProcessorsMatchesScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, mRaw uint8, data []byte) {
		m := 1 + int(mRaw)%130
		inst := &core.Instance{M: m}
		var starts []core.Time
		for i := 0; i+3 <= len(data) && i < 3*48; i += 3 {
			q := 1 + int(data[i]>>1)%m
			l, at := core.Time(1+data[i+1]%16), core.Time(data[i+2]%32)
			if data[i]&1 == 0 {
				inst.Jobs = append(inst.Jobs, core.Job{ID: len(inst.Jobs), Procs: q, Len: l})
				starts = append(starts, at)
				continue
			}
			if data[i+1] == 0xff {
				l = core.Infinity
			}
			inst.Res = append(inst.Res, core.Reservation{ID: len(inst.Res), Procs: q, Start: at, Len: l})
		}
		s := core.NewSchedule(inst)
		s.Start = starts
		matchScan(t, "fuzz", s)
		feasible := len(Check(s)) == 0
		a, err := AssignProcessors(s)
		if feasible != (err == nil) {
			t.Fatalf("Check says feasible=%v, the sweep says %v", feasible, err)
		}
		if feasible != (Verify(s) == nil) {
			t.Fatalf("Check says feasible=%v, Verify says %v", feasible, Verify(s))
		}
		if feasible {
			if err := checkAssignment(s, a); err != nil {
				t.Fatal(err)
			}
		}
	})
}
