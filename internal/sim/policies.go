package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/sched"
)

// scratch overlays trial commitments on the engine's live capacity index
// and rolls them back before Dispatch returns. Policies need scratch state
// so that each pick accounts for the picks before it; cloning the whole
// index per event is O(n) (and allocation-heavy on the tree backend),
// whereas commit+rollback costs only the picked windows. Rolling back an
// exact prior commit cannot fail — the differential fuzz harness pins that
// invariant for both backends — so a rollback error is a programming
// error, not a runtime condition.
type scratch struct {
	idx profile.CapacityIndex
	ops []struct {
		s, d core.Time
		q    int
	}
}

func (sc *scratch) canPlace(start, dur core.Time, q int) bool {
	return sc.idx.CanPlace(start, dur, q)
}

func (sc *scratch) commit(start, dur core.Time, q int) error {
	if err := sc.idx.Commit(start, dur, q); err != nil {
		return err
	}
	sc.ops = append(sc.ops, struct {
		s, d core.Time
		q    int
	}{start, dur, q})
	return nil
}

func (sc *scratch) findSlot(ready core.Time, q int, dur core.Time) (core.Time, bool) {
	return sc.idx.FindSlot(ready, q, dur)
}

// undo releases the trial commitments in reverse order, restoring the
// index to its pre-Dispatch state.
func (sc *scratch) undo() {
	for i := len(sc.ops) - 1; i >= 0; i-- {
		op := sc.ops[i]
		if err := sc.idx.Release(op.s, op.d, op.q); err != nil {
			panic(fmt.Sprintf("sim: scratch rollback failed: %v", err))
		}
	}
	sc.ops = sc.ops[:0]
}

// GreedyPolicy is online LSRC: every queued job that fits now is started,
// in queue (arrival) order — the most aggressive back-filling.
type GreedyPolicy struct{}

// Name implements Policy.
func (GreedyPolicy) Name() string { return "greedy-lsrc" }

// Dispatch implements Policy.
//
// The pass is sched.LSRC's: read the capacity free at now once, and let the
// min-width tournament offer, in queue order, only the jobs no wider than
// that — a wider one cannot fit. The width filter is all that is kept of
// LSRC's shortcuts: the trial commitments are rolled back before Dispatch
// returns, so nothing learnt about a blocked job's earliest start (LSRC's
// not-before memo) may outlive the call.
func (GreedyPolicy) Dispatch(now core.Time, queue []Queued, tl profile.CapacityIndex) []int {
	sc := &scratch{idx: tl}
	defer sc.undo()
	var picks []int
	free := tl.AvailableAt(now)
	fits := sched.NewTournament(len(queue), func(p int) int { return queue[p].Job.Procs })
	for p := fits.Next(0, free); p >= 0; p = fits.Next(p+1, free) {
		j := queue[p].Job
		if sc.canPlace(now, j.Len, j.Procs) {
			if sc.commit(now, j.Len, j.Procs) != nil {
				continue
			}
			picks = append(picks, p)
			free -= j.Procs
		}
	}
	return picks
}

// FCFSPolicy starts only the head of the queue (and successors while each
// head fits): strict head-of-line order.
type FCFSPolicy struct{}

// Name implements Policy.
func (FCFSPolicy) Name() string { return "fcfs" }

// Dispatch implements Policy.
func (FCFSPolicy) Dispatch(now core.Time, queue []Queued, tl profile.CapacityIndex) []int {
	sc := &scratch{idx: tl}
	defer sc.undo()
	var picks []int
	for p := 0; p < len(queue); p++ {
		j := queue[p].Job
		if !sc.canPlace(now, j.Len, j.Procs) {
			break
		}
		if sc.commit(now, j.Len, j.Procs) != nil {
			break
		}
		picks = append(picks, p)
	}
	return picks
}

// EASYPolicy starts head jobs while they fit, then back-fills any later job
// that fits now without delaying the earliest possible start of the blocked
// head.
type EASYPolicy struct{}

// Name implements Policy.
func (EASYPolicy) Name() string { return "easy-bf" }

// Dispatch implements Policy.
func (EASYPolicy) Dispatch(now core.Time, queue []Queued, tl profile.CapacityIndex) []int {
	sc := &scratch{idx: tl}
	defer sc.undo()
	var picks []int
	p := 0
	for ; p < len(queue); p++ {
		j := queue[p].Job
		if !sc.canPlace(now, j.Len, j.Procs) {
			break
		}
		if sc.commit(now, j.Len, j.Procs) != nil {
			break
		}
		picks = append(picks, p)
	}
	if p >= len(queue) {
		return picks
	}
	// Shadow hold for the blocked head.
	head := queue[p].Job
	shadow, ok := sc.findSlot(now, head.Procs, head.Len)
	if !ok {
		return picks
	}
	if sc.commit(shadow, head.Len, head.Procs) != nil {
		return picks
	}
	for q := p + 1; q < len(queue); q++ {
		j := queue[q].Job
		if sc.canPlace(now, j.Len, j.Procs) {
			if sc.commit(now, j.Len, j.Procs) != nil {
				continue
			}
			picks = append(picks, q)
		}
	}
	return picks
}
