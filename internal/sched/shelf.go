package sched

import "repro/internal/core"

// ShelfFit selects how jobs are packed onto shelves.
type ShelfFit int

const (
	// NextFit packs each job onto the newest shelf, opening a new shelf
	// when it does not fit (NFDH).
	NextFit ShelfFit = iota
	// FirstFit packs each job onto the first shelf with enough remaining
	// width, opening a new shelf only when none fits (FFDH).
	FirstFit
)

// Shelf is the conclusion's "partition on shelves" heuristic adapted to
// reservations. Jobs are sorted by decreasing duration and packed onto
// shelves (groups of jobs that run concurrently; a shelf's height is the
// duration of its first, longest job and its width the total processor
// requirement). Shelves are then placed in order, each at the earliest
// instant after the previous shelf's start at which the whole shelf fits
// around the reservations.
type Shelf struct {
	// Fit selects NFDH (NextFit) or FFDH (FirstFit) packing.
	Fit ShelfFit
	// Backend selects the capacity-index implementation ("" = array).
	Backend string
}

// Name implements Scheduler.
func (sh *Shelf) Name() string {
	if sh.Fit == FirstFit {
		return "shelf-ffdh"
	}
	return "shelf-nfdh"
}

type shelf struct {
	height core.Time
	width  int
	jobs   []int
}

// Schedule implements Scheduler.
func (sh *Shelf) Schedule(inst *core.Instance) (*core.Schedule, error) {
	tl, err := prep(inst, sh.Backend)
	if err != nil {
		return nil, err
	}
	var shelves []shelf
	for _, i := range LPT.Indices(inst) { // decreasing duration, ties by index
		j := inst.Jobs[i]
		w := j.Procs
		placed := false
		switch sh.Fit {
		case FirstFit:
			for k := range shelves {
				if shelves[k].width+w <= inst.M {
					shelves[k].width += w
					shelves[k].jobs = append(shelves[k].jobs, i)
					placed = true
					break
				}
			}
		default: // NextFit
			if n := len(shelves); n > 0 && shelves[n-1].width+w <= inst.M {
				shelves[n-1].width += w
				shelves[n-1].jobs = append(shelves[n-1].jobs, i)
				placed = true
			}
		}
		if !placed {
			shelves = append(shelves, shelf{height: j.Len, width: w, jobs: []int{i}})
		}
	}

	s := core.NewSchedule(inst)
	s.Algorithm = sh.Name()
	ready := core.Time(0)
	for _, shf := range shelves {
		start, ok := tl.FindSlot(ready, shf.width, shf.height)
		if !ok {
			return nil, stuckErr(inst.Jobs[shf.jobs[0]])
		}
		// Commit jobs individually (their total equals the shelf width, and
		// each is no longer than the shelf height, so all fit at start).
		for _, i := range shf.jobs {
			j := inst.Jobs[i]
			if err := tl.Commit(start, j.Len, j.Procs); err != nil {
				return nil, err
			}
			s.SetStart(i, start)
		}
		// The next shelf goes strictly above this one.
		ready = start + shf.height
	}
	return s, nil
}
