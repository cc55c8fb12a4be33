// Package verify checks schedules for feasibility and materialises concrete
// per-processor assignments.
//
// Feasibility in the RESASCHEDULING model (§3.1 of the paper) requires that
// at every instant the processors used by running jobs plus the processors
// held by active reservations never exceed m. Because the model is
// non-contiguous, an aggregate capacity check is equivalent to the existence
// of a concrete processor assignment: job executions are time intervals, the
// interval graph they induce is perfect, and its chromatic number equals the
// peak overlap. AssignProcessors constructs such an assignment greedily and
// Verify double-checks the two views against each other.
//
// The greedy sweep keeps the free processors as one bitset of m bits and
// what each job and reservation holds as another, so an interval start or
// end costs m/64 words. Verify runs the sweep and builds no per-processor
// lists; AssignProcessors builds them from the bitsets for its callers.
package verify

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/core"
)

// Violation describes one way a schedule fails feasibility.
type Violation struct {
	// Kind classifies the violation.
	Kind ViolationKind
	// JobIdx is the index of the offending job, or -1.
	JobIdx int
	// At is the time of the violation, if applicable.
	At core.Time
	// Detail is a human-readable explanation.
	Detail string
}

// ViolationKind enumerates feasibility failures.
type ViolationKind int

// The feasibility failure classes detected by Check.
const (
	// VUnscheduled: a job has no start time.
	VUnscheduled ViolationKind = iota
	// VNegativeStart: a job starts before time 0.
	VNegativeStart
	// VOverCapacity: jobs plus reservations exceed m processors.
	VOverCapacity
)

func (k ViolationKind) String() string {
	switch k {
	case VUnscheduled:
		return "unscheduled"
	case VNegativeStart:
		return "negative-start"
	case VOverCapacity:
		return "over-capacity"
	}
	return "unknown"
}

// ErrInfeasible is wrapped by all verification failures.
var ErrInfeasible = errors.New("verify: schedule infeasible")

// Check returns all violations of the schedule (empty means feasible and
// complete).
func Check(s *core.Schedule) []Violation {
	var out []Violation
	for i, t := range s.Start {
		switch {
		case t == core.Unscheduled:
			out = append(out, Violation{Kind: VUnscheduled, JobIdx: i,
				Detail: fmt.Sprintf("job %d has no start time", s.Inst.Jobs[i].ID)})
		case t < 0:
			out = append(out, Violation{Kind: VNegativeStart, JobIdx: i, At: t,
				Detail: fmt.Sprintf("job %d starts at %v", s.Inst.Jobs[i].ID, t)})
		}
	}
	usage := s.TotalUsage()
	for i := 0; i < usage.Len(); i++ {
		start, _, v := usage.Segment(i)
		if v > s.Inst.M {
			out = append(out, Violation{Kind: VOverCapacity, JobIdx: -1, At: start,
				Detail: fmt.Sprintf("usage %d > m=%d from t=%v", v, s.Inst.M, start)})
		}
	}
	return out
}

// Verify returns nil when the schedule is complete and feasible, and a
// descriptive error (wrapping ErrInfeasible) otherwise. It additionally
// cross-checks the aggregate capacity view by constructing a concrete
// processor assignment.
func Verify(s *core.Schedule) error {
	if vs := Check(s); len(vs) > 0 {
		return fmt.Errorf("%w: %d violation(s), first: %s", ErrInfeasible, len(vs), vs[0].Detail)
	}
	if _, err := sweep(s); err != nil {
		return fmt.Errorf("%w: capacity check passed but assignment failed: %v", ErrInfeasible, err)
	}
	return nil
}

// Assignment maps every job and reservation of a schedule to the concrete
// processor IDs (0..m-1) it occupies.
type Assignment struct {
	// JobProcs[i] lists the processors used by Inst.Jobs[i], sorted.
	JobProcs [][]int
	// ResProcs[i] lists the processors held by Inst.Res[i], sorted.
	ResProcs [][]int
}

// event is a start or end of an occupation interval during the sweep.
// Occupation k is Inst.Jobs[k] for k < len(Inst.Jobs), else
// Inst.Res[k-len(Inst.Jobs)].
type event struct {
	at    core.Time
	start bool
	k     int
}

// AssignProcessors builds a concrete processor assignment for a feasible
// complete schedule by a left-to-right sweep: at each interval start it
// takes the lowest-numbered free processors; at each end it frees them.
// Ends are processed before starts at equal times (intervals are half-open).
// It fails exactly when the schedule oversubscribes capacity at some time.
// The sweep runs on bitsets; the sorted lists are built from them at the end.
func AssignProcessors(s *core.Schedule) (*Assignment, error) {
	held, err := sweep(s)
	if err != nil {
		return nil, err
	}
	inst := s.Inst
	words := wordsFor(inst.M)
	list := func(k, q int) []int {
		out := make([]int, 0, q)
		for i, w := range held[k*words : (k+1)*words] {
			for ; w != 0; w &= w - 1 {
				out = append(out, i*64+bits.TrailingZeros64(w))
			}
		}
		return out
	}
	asg := &Assignment{
		JobProcs: make([][]int, len(inst.Jobs)),
		ResProcs: make([][]int, len(inst.Res)),
	}
	for i, j := range inst.Jobs {
		asg.JobProcs[i] = list(i, j.Procs)
	}
	for i, r := range inst.Res {
		asg.ResProcs[i] = list(len(inst.Jobs)+i, r.Procs)
	}
	return asg, nil
}

// wordsFor is the number of 64-bit words in a bitset of m processors.
func wordsFor(m int) int { return (m + 63) / 64 }

// sweep is AssignProcessors' sweep without the lists: it returns what
// every occupation holds, occupation k in held[k*words : (k+1)*words].
// The free processors are one bitset of m bits, so a start or an end
// costs m/64 words, and a start takes whole words before the one it
// splits.
func sweep(s *core.Schedule) (held []uint64, err error) {
	inst := s.Inst
	nJobs := len(inst.Jobs)
	events := make([]event, 0, 2*(nJobs+len(inst.Res)))
	for i, t := range s.Start {
		if t == core.Unscheduled {
			return nil, fmt.Errorf("%w: job %d unscheduled", ErrInfeasible, inst.Jobs[i].ID)
		}
		events = append(events,
			event{t, true, i},
			event{t + inst.Jobs[i].Len, false, i})
	}
	for i, r := range inst.Res {
		events = append(events, event{r.Start, true, nJobs + i})
		if r.End() != core.Infinity {
			events = append(events, event{r.End(), false, nJobs + i})
		}
	}
	// The order among equal keys decides who gets which processors, so
	// this comparator must keep saying exactly what it says.
	slices.SortFunc(events, func(a, b event) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		// Frees before takes at equal time.
		switch {
		case !a.start && b.start:
			return -1
		case a.start && !b.start:
			return 1
		}
		return 0
	})

	words := wordsFor(inst.M)
	free := make([]uint64, words)
	for p := 0; p < inst.M; p += 64 {
		free[p/64] = ^uint64(0) >> max(0, p+64-inst.M)
	}
	nFree := inst.M
	held = make([]uint64, (nJobs+len(inst.Res))*words)
	for _, ev := range events {
		mine := held[ev.k*words : (ev.k+1)*words]
		if !ev.start {
			for i, w := range mine {
				free[i] |= w
				nFree += bits.OnesCount64(w)
			}
			continue
		}
		what, id, q := "job", 0, 0
		if ev.k < nJobs {
			id, q = inst.Jobs[ev.k].ID, inst.Jobs[ev.k].Procs
		} else {
			r := inst.Res[ev.k-nJobs]
			what, id, q = "reservation", r.ID, r.Procs
		}
		if q > nFree {
			return nil, fmt.Errorf("%w: no %d free processors for %s %d at t=%v",
				ErrInfeasible, q, what, id, ev.at)
		}
		nFree -= q
		for i, need := 0, q; need > 0; i++ {
			w := free[i]
			if c := bits.OnesCount64(w); c <= need {
				mine[i], free[i], need = w, 0, need-c
				continue
			}
			var take uint64
			for ; need > 0; need-- {
				take |= w & -w
				w &= w - 1
			}
			mine[i], free[i] = take, w
		}
	}
	return held, nil
}

// CheckAssignment validates that an assignment is consistent with its
// schedule: every job/reservation holds exactly its required number of
// distinct processors, and no processor is held by two overlapping
// occupations.
func CheckAssignment(s *core.Schedule, a *Assignment) error {
	inst := s.Inst
	if len(a.JobProcs) != len(inst.Jobs) || len(a.ResProcs) != len(inst.Res) {
		return fmt.Errorf("%w: assignment shape mismatch", ErrInfeasible)
	}
	type hold struct {
		t0, t1 core.Time
		what   string
	}
	perProc := make(map[int][]hold)
	add := func(procs []int, q int, t0, t1 core.Time, what string) error {
		if len(procs) != q {
			return fmt.Errorf("%w: %s holds %d processors, needs %d", ErrInfeasible, what, len(procs), q)
		}
		seen := map[int]bool{}
		for _, p := range procs {
			if p < 0 || p >= inst.M {
				return fmt.Errorf("%w: %s uses invalid processor %d", ErrInfeasible, what, p)
			}
			if seen[p] {
				return fmt.Errorf("%w: %s uses processor %d twice", ErrInfeasible, what, p)
			}
			seen[p] = true
			perProc[p] = append(perProc[p], hold{t0, t1, what})
		}
		return nil
	}
	for i, j := range inst.Jobs {
		t := s.Start[i]
		if t == core.Unscheduled {
			return fmt.Errorf("%w: job %d unscheduled", ErrInfeasible, j.ID)
		}
		if err := add(a.JobProcs[i], j.Procs, t, t+j.Len, fmt.Sprintf("job %d", j.ID)); err != nil {
			return err
		}
	}
	for i, r := range inst.Res {
		if err := add(a.ResProcs[i], r.Procs, r.Start, r.End(), fmt.Sprintf("reservation %d", r.ID)); err != nil {
			return err
		}
	}
	for p, holds := range perProc {
		slices.SortFunc(holds, func(a, b hold) int { return cmp.Compare(a.t0, b.t0) })
		for i := 1; i < len(holds); i++ {
			if holds[i].t0 < holds[i-1].t1 {
				return fmt.Errorf("%w: processor %d double-booked by %s and %s",
					ErrInfeasible, p, holds[i-1].what, holds[i].what)
			}
		}
	}
	return nil
}
