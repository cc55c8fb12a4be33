package sched

import (
	"fmt"

	"repro/internal/core"
)

// EASY is EASY (aggressive) back-filling: jobs are kept in submission
// order; at every decision instant the head of the queue is started if it
// fits, otherwise the head receives a *shadow reservation* at its earliest
// feasible time and any later job may be back-filled now provided it does
// not delay that shadow. Only the head job's start is protected, so EASY
// sits between FCFS (everything protected) and LSRC (nothing protected).
type EASY struct {
	// Backend selects the capacity-index implementation ("" = array).
	Backend string
}

// Name implements Scheduler.
func (EASY) Name() string { return "easy-bf" }

// Schedule implements Scheduler.
func (e EASY) Schedule(inst *core.Instance) (*core.Schedule, error) {
	tl, err := prep(inst, e.Backend)
	if err != nil {
		return nil, err
	}
	s := core.NewSchedule(inst)
	s.Algorithm = "easy-bf"
	// The queue is the instance order, so a list position is a job index.
	// The tournament serves the width filter only: the shadow hold is
	// released after every event, so capacity does not only shrink across
	// events and LSRC's not-before memo would not stay valid here.
	queue := NewTournament(len(inst.Jobs), func(pos int) int { return inst.Jobs[pos].Procs })

	t := core.Time(0)
	for {
		// free is the capacity at t, kept current across the commits at t;
		// the shadow hold starts after t and does not touch it.
		free := tl.AvailableAt(t)

		// Start head jobs while they fit right now.
		hd := queue.First()
		for ; hd >= 0; hd = queue.First() {
			j := inst.Jobs[hd]
			if j.Procs > free || !tl.CanPlace(t, j.Len, j.Procs) {
				break
			}
			if err := tl.Commit(t, j.Len, j.Procs); err != nil {
				return nil, fmt.Errorf("sched: internal: %v", err)
			}
			s.SetStart(hd, t)
			queue.Remove(hd)
			free -= j.Procs
		}
		if hd < 0 {
			return s, nil
		}

		// Head does not fit now: compute its shadow slot and hold it.
		head := inst.Jobs[hd]
		shadow, ok := tl.FindSlot(t, head.Procs, head.Len)
		if !ok {
			return nil, stuckErr(head)
		}
		if err := tl.Commit(shadow, head.Len, head.Procs); err != nil {
			return nil, fmt.Errorf("sched: internal shadow: %v", err)
		}

		// Back-fill: any later job that fits now without touching the
		// shadow hold may start. Single pass: capacity only shrinks.
		for idx := queue.Next(hd+1, free); idx >= 0; idx = queue.Next(idx+1, free) {
			j := inst.Jobs[idx]
			if tl.CanPlace(t, j.Len, j.Procs) {
				if err := tl.Commit(t, j.Len, j.Procs); err != nil {
					return nil, fmt.Errorf("sched: internal: %v", err)
				}
				s.SetStart(idx, t)
				queue.Remove(idx)
				free -= j.Procs
			}
		}

		// Drop the shadow hold; the head will be re-examined at the next
		// event (it may start earlier than the shadow if back-filled jobs
		// finish sooner than expected — with exact durations they do not,
		// but releasing keeps the timeline exactly the committed state).
		if err := tl.Release(shadow, head.Len, head.Procs); err != nil {
			return nil, fmt.Errorf("sched: internal release: %v", err)
		}

		next, ok := tl.NextBreakpoint(t)
		if !ok {
			// Constant availability forever and the head does not fit.
			return nil, stuckErr(head)
		}
		t = next
	}
}
