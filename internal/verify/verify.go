// Package verify checks schedules for feasibility and materialises concrete
// per-processor assignments.
//
// Feasibility in the RESASCHEDULING model (§3.1 of the paper) requires that
// at every instant the processors used by running jobs plus the processors
// held by active reservations never exceed m. Because the model is
// non-contiguous, an aggregate capacity check is equivalent to the existence
// of a concrete processor assignment: job executions are time intervals, the
// interval graph they induce is perfect, and its chromatic number equals the
// peak overlap. AssignProcessors constructs such an assignment greedily;
// Verify's capacity check is that construction, and Check reads the
// aggregate usage curve.
//
// The greedy sweep keeps the free processors as one bitset of m bits and
// what each job and reservation holds as another, so an interval start or
// end costs m/64 words. Its events are in one total order — time, then
// frees before takes, then occupation index — laid out so that a stable
// radix sort on the time alone (core.SortByKey) gives it; Check's usage
// curve is built on the same kernel. Verify runs the sweep as its capacity
// check and builds no per-processor lists; AssignProcessors builds them
// from the bitsets for its callers.
package verify

import (
	"errors"
	"fmt"
	"math/bits"

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
	out := jobViolations(s)
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

// jobViolations returns the violations of single jobs: no start time, or a
// start before 0.
func jobViolations(s *core.Schedule) []Violation {
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
	return out
}

// Verify returns nil when the schedule is complete and feasible, and a
// descriptive error (wrapping ErrInfeasible) otherwise. After the per-job
// checks it runs the processor-assignment sweep alone, which is the
// capacity check too: its error names the first instant where usage
// exceeds m, the first start that finds too few processors free. So the
// interval ends are sorted once.
func Verify(s *core.Schedule) error {
	if vs := jobViolations(s); len(vs) > 0 {
		return fmt.Errorf("%w: %d violation(s), first: %s", ErrInfeasible, len(vs), vs[0].Detail)
	}
	_, err := sweep(s)
	return err
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
// Ends are processed before starts at equal times (intervals are
// half-open), and occupations of one kind at one time in index order.
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
	for i, t := range s.Start {
		if t == core.Unscheduled {
			return nil, fmt.Errorf("%w: job %d unscheduled", ErrInfeasible, inst.Jobs[i].ID)
		}
	}
	// The events' order decides who gets which processors: time, then
	// frees before takes, then occupation index. The sort is stable and by
	// time alone, so the ends go in first, each kind in occupation order.
	window := func(k int) (t0, t1 core.Time) {
		if k < nJobs {
			return s.Start[k], s.Start[k] + inst.Jobs[k].Len
		}
		r := inst.Res[k-nJobs]
		return r.Start, r.End()
	}
	nOcc := nJobs + len(inst.Res)
	events := make([]event, 0, 2*nOcc)
	for _, start := range []bool{false, true} {
		for k := 0; k < nOcc; k++ {
			t0, t1 := window(k)
			switch {
			case start:
				events = append(events, event{t0, true, k})
			case t1 != core.Infinity:
				events = append(events, event{t1, false, k})
			}
		}
	}
	core.SortByKey(events, func(e event) uint64 { return core.SortKey(int64(e.at)) })

	words := wordsFor(inst.M)
	free := make([]uint64, words)
	for p := 0; p < inst.M; p += 64 {
		free[p/64] = ^uint64(0) >> max(0, p+64-inst.M)
	}
	nFree := inst.M
	held = make([]uint64, nOcc*words)
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
