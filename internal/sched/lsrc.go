package sched

import (
	"fmt"

	"repro/internal/core"
)

// LSRC is the list scheduling algorithm with resource constraints analysed
// throughout the paper (Garey & Graham's algorithm, equal to the most
// aggressive back-filling variant). It is event-driven: at every instant
// where availability changes it scans the priority list once and starts
// every job whose entire execution window fits in the remaining
// availability.
//
// Guarantees reproduced by the experiments:
//   - without reservations: Cmax <= (2 - 1/m)·C*max (Theorem 2);
//   - with non-increasing reservations: Cmax <= (2 - 1/m(C*max))·C*max
//     (Proposition 1);
//   - with α-restricted reservations: Cmax <= (2/α)·C*max (Proposition 3),
//     with worst cases at least 2/α - 1 + α/2 (Proposition 2).
type LSRC struct {
	// Order is the priority rule; FIFO when zero.
	Order Order
	// Backend selects the capacity-index implementation ("" = array).
	Backend string
}

// NewLSRC returns an LSRC scheduler with the given priority order.
func NewLSRC(order Order) *LSRC { return &LSRC{Order: order} }

// Name implements Scheduler.
func (l *LSRC) Name() string {
	o := l.order()
	return "lsrc-" + o.Name
}

func (l *LSRC) order() Order {
	if l.Order.Indices == nil {
		return FIFO
	}
	return l.Order
}

// Schedule implements Scheduler.
//
// Correctness of event advancement: for a fixed committed timeline, the
// earliest feasible start of any job only changes at timeline breakpoints
// (a window [t, t+p) becomes feasible exactly when t passes the end of the
// last under-capacity segment blocking it). Scanning the list at every
// breakpoint therefore reproduces the continuous-time list scheduler.
//
// The scan asks the index only about jobs that can start, and starts
// exactly the jobs a full scan of the list would (lsrc_diff_test.go keeps
// that full scan as the oracle). Three facts make the shortcuts exact:
//
//   - Width filter. A window [t, t+p) has q processors free only if
//     instant t does, so a job with q > free(t) fails CanPlace(t, p, q) and
//     is skipped without asking. free is read from the index once per event
//     and kept current by hand: a commit at t of a job with p >= 1 lowers
//     the capacity at t by exactly q. The tournament answers "next list
//     position whose width is at most free" in list order, so the jobs that
//     do get asked are asked in the order the full scan would ask them.
//   - One pass. Within an event nothing is released, so capacity only
//     shrinks as the pass proceeds: a job refused earlier in the pass
//     cannot fit later in it, and a second pass would start nothing.
//   - Parked set. A job that passes the width filter and still fails
//     CanPlace is blocked by a reservation (or a job booked around one)
//     ahead of it. FindSlot(t, q, p) is then its earliest start on the
//     current timeline, and because LSRC only ever commits — never
//     releases — for the rest of the call, every later timeline is
//     pointwise no larger, so no start before that instant can become
//     feasible. The job is taken out of the tournament and parked in a
//     min-heap on that instant ("never", an infinite reservation, is
//     Infinity and never comes), and the first event at or after it puts
//     the job back. The tournament answers by list position, so a restored
//     job is offered where the full scan would reach it, and the pass
//     never visits a job it already knows cannot start.
//
// Parking is sound only because nothing is released. EASY drops its shadow
// hold after every event and the simulator's policies roll their trial
// commitments back, so both use the tournament for the width filter alone.
//
// Cost: O(n) for the list order (a radix sort) and the tournament, then one
// AvailableAt and one NextBreakpoint per event and O(log n) per job
// started, parked or restored — no longer O(pending) index calls or
// tournament steps per event. Without reservations CanPlace is called
// exactly n times and never fails.
func (l *LSRC) Schedule(inst *core.Instance) (*core.Schedule, error) {
	tl, err := prep(inst, l.Backend)
	if err != nil {
		return nil, err
	}
	s := core.NewSchedule(inst)
	s.Algorithm = l.Name()
	list := l.order().Indices(inst)
	if len(list) != len(inst.Jobs) {
		return nil, fmt.Errorf("%w: order returned %d indices for %d jobs",
			ErrInvalid, len(list), len(inst.Jobs))
	}
	// pending holds the list positions not yet started and not parked;
	// parked holds the others not yet started, each until its instant.
	width := func(pos int) int { return inst.Jobs[list[pos]].Procs }
	pending := NewTournament(len(list), width)
	parked := make(parkHeap, 0, len(list))

	t := core.Time(0)
	for left := len(list); left > 0; {
		for len(parked) > 0 && parked[0].at <= t {
			pos := parked.pop().pos
			pending.Restore(pos, width(pos))
		}
		free := tl.AvailableAt(t)
		for pos := pending.Next(0, free); pos >= 0; pos = pending.Next(pos+1, free) {
			idx := list[pos]
			j := inst.Jobs[idx]
			pending.Remove(pos)
			if !tl.CanPlace(t, j.Len, j.Procs) {
				at, ok := tl.FindSlot(t, j.Procs, j.Len)
				if !ok {
					at = core.Infinity
				}
				parked.push(parkedJob{at: at, pos: pos})
				continue
			}
			if err := tl.Commit(t, j.Len, j.Procs); err != nil {
				return nil, fmt.Errorf("sched: internal: %v", err)
			}
			s.SetStart(idx, t)
			free -= j.Procs
			left--
		}
		if left == 0 {
			break
		}
		next, ok := tl.NextBreakpoint(t)
		if !ok {
			// Availability is constant on [t, inf) and the remaining jobs
			// do not fit: they never will. Name the first in list order,
			// parked or not.
			first := pending.First()
			for _, e := range parked {
				if first < 0 || e.pos < first {
					first = e.pos
				}
			}
			return nil, stuckErr(inst.Jobs[list[first]])
		}
		t = next
	}
	return s, nil
}

// parkedJob is a list position LSRC has taken out of the tournament, and
// the earliest instant its job could start (Infinity for never).
type parkedJob struct {
	at  core.Time
	pos int
}

// parkHeap is a binary min-heap of parked jobs on at.
type parkHeap []parkedJob

func (h *parkHeap) push(e parkedJob) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		up := (i - 1) / 2
		if s[up].at <= e.at {
			break
		}
		s[i] = s[up]
		i = up
	}
	s[i] = e
	*h = s
}

func (h *parkHeap) pop() parkedJob {
	s := *h
	top, last := s[0], s[len(s)-1]
	s = s[:len(s)-1]
	if len(s) > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= len(s) {
				break
			}
			if c+1 < len(s) && s[c+1].at < s[c].at {
				c++
			}
			if last.at <= s[c].at {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = last
	}
	*h = s
	return top
}
