package verify

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// tickOracle is a brute-force per-tick feasibility check used as a
// differential oracle for Check: a complete schedule is feasible iff at
// every integral instant the running jobs plus active reservations fit in
// m. (All times in the generated schedules are integral, so per-tick
// sampling is exact.)
func tickOracle(s *core.Schedule, horizon core.Time) bool {
	for t := core.Time(0); t < horizon; t++ {
		use := 0
		for i, st := range s.Start {
			if st <= t && t < st+s.Inst.Jobs[i].Len {
				use += s.Inst.Jobs[i].Procs
			}
		}
		for _, r := range s.Inst.Res {
			if r.Start <= t && t < r.End() {
				use += r.Procs
			}
		}
		if use > s.Inst.M {
			return false
		}
	}
	return true
}

// TestCheckMatchesTickOracle generates arbitrary (mostly infeasible)
// schedules and demands that Check and the brute-force oracle agree
// exactly.
func TestCheckMatchesTickOracle(t *testing.T) {
	r := rng.New(778899)
	for trial := 0; trial < 400; trial++ {
		m := r.IntRange(1, 6)
		inst := &core.Instance{M: m}
		n := r.IntRange(1, 6)
		for i := 0; i < n; i++ {
			inst.Jobs = append(inst.Jobs, core.Job{
				ID: i, Procs: r.IntRange(1, m), Len: core.Time(r.IntRange(1, 8)),
			})
		}
		if r.Bool(0.5) {
			inst.Res = append(inst.Res, core.Reservation{
				ID: 0, Procs: r.IntRange(1, m), Start: core.Time(r.Intn(10)),
				Len: core.Time(r.IntRange(1, 8)),
			})
		}
		s := core.NewSchedule(inst)
		for i := range inst.Jobs {
			s.SetStart(i, core.Time(r.Intn(20)))
		}
		violations := Check(s)
		feasible := len(violations) == 0
		oracle := tickOracle(s, 50)
		if feasible != oracle {
			t.Fatalf("trial %d: Check says feasible=%v, oracle says %v\ninstance: %+v\nstarts: %v\nviolations: %+v",
				trial, feasible, oracle, inst, s.Start, violations)
		}
		// Whenever Check passes, the concrete assignment must exist and
		// validate; whenever it fails, AssignProcessors must fail too.
		asg, err := AssignProcessors(s)
		if feasible {
			if err != nil {
				t.Fatalf("trial %d: feasible schedule has no assignment: %v", trial, err)
			}
			if err := checkAssignment(s, asg); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		} else if err == nil {
			t.Fatalf("trial %d: infeasible schedule got an assignment", trial)
		}
		// Verify, which runs the sweep alone, fails exactly when Check
		// does and names Check's first over-subscribed instant.
		err = Verify(s)
		if feasible != (err == nil) || (err != nil && !errors.Is(err, ErrInfeasible)) {
			t.Fatalf("trial %d: Check says feasible=%v, Verify says %v", trial, feasible, err)
		}
		if !feasible && violations[0].Kind == VOverCapacity {
			if at := fmt.Sprintf("at t=%v", violations[0].At); !strings.Contains(err.Error(), at) {
				t.Fatalf("trial %d: Verify's %q does not name the first over-subscribed instant (%s)", trial, err, at)
			}
		}
	}
}
