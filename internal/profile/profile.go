// Package profile implements the resource-availability timeline at the
// heart of every scheduler in this repository.
//
// A Timeline is a piecewise-constant function giving, for every instant in
// [0, +inf), the number of processors available to the scheduler. It is
// built from the machine size m minus the instance's advance reservations,
// and is then progressively consumed as jobs are committed. All scheduling
// policies (LSRC, FCFS, backfilling variants, shelves) and the exact solver
// are written against this one abstraction, so the semantics of "fits"
// — q processors available during the job's *entire* execution window,
// accounting for reservations that start in the future — are identical
// everywhere. This matters: Proposition 2's adversarial schedule only
// arises because the list scheduler refuses placements that would collide
// with a reservation later in the job's window.
//
// Those semantics are captured by the CapacityIndex interface (index.go),
// which Timeline implements as the "array" backend: a flat sorted array of
// segments, ideal for the paper's instance sizes but O(n) per mutation and
// slot scan. internal/restree implements the same interface as the "tree"
// backend — the same sorted arrays cut into 64-slot leaves under a
// directory that knows each leaf's min and max — registered here via
// RegisterBackend. On the FindSlot+Commit+Release cycle there is no
// crossover any more: a tree of one leaf is a sorted array, so the tree
// is 1.3× faster at 5 reservations, 1.7× at 20, 4× at 100, 7× at 10^3,
// 51× at 10^4 and 600× at 10^5 (the root package's
// BenchmarkCapacityIndex). Timeline stays the default for the paper's
// small instances because it is the one to read and the reference the
// tree is fuzzed against; choose tree for anything that grows. Both maintain the identical canonical segment form, so
// schedules are bit-for-bit equal whichever backend runs them.
package profile

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// Timeline is the available-capacity step function. The capacity equals
// avail[i] on [times[i], times[i+1]) and avail[len-1] on the final unbounded
// segment. times[0] is always 0. Construct with New or FromReservations.
type Timeline struct {
	m     int // original machine size, upper bound for Release validation
	times []core.Time
	avail []int
}

// Errors reported by Timeline operations.
var (
	ErrInsufficient = errors.New("profile: committing more capacity than available")
	ErrOverRelease  = errors.New("profile: releasing beyond machine capacity")
	ErrBadWindow    = errors.New("profile: invalid time window")
)

// New returns a timeline with constant capacity m on [0, +inf).
func New(m int) *Timeline {
	if m < 0 {
		panic("profile: negative capacity")
	}
	return &Timeline{m: m, times: []core.Time{0}, avail: []int{m}}
}

// FromReservations returns the availability left by the given reservations
// on an m-processor machine: m - U(t). It returns ErrInsufficient if the
// reservations oversubscribe the machine at any time.
func FromReservations(m int, res []core.Reservation) (*Timeline, error) {
	tl := New(m)
	for _, r := range res {
		if err := tl.Commit(r.Start, r.Len, r.Procs); err != nil {
			return nil, fmt.Errorf("profile: reservation %d: %w", r.ID, err)
		}
	}
	return tl, nil
}

// MustFromReservations is FromReservations for reservation sets already
// validated by core.Instance.Validate; it panics on oversubscription.
func MustFromReservations(m int, res []core.Reservation) *Timeline {
	tl, err := FromReservations(m, res)
	if err != nil {
		panic(err)
	}
	return tl
}

// M returns the machine size the timeline was created with.
func (tl *Timeline) M() int { return tl.m }

// Clone returns an independent deep copy.
func (tl *Timeline) Clone() *Timeline {
	out := &Timeline{m: tl.m}
	out.times = append(make([]core.Time, 0, len(tl.times)), tl.times...)
	out.avail = append(make([]int, 0, len(tl.avail)), tl.avail...)
	return out
}

// segIndex returns the index of the segment containing time t (t >= 0).
func (tl *Timeline) segIndex(t core.Time) int {
	// First breakpoint strictly greater than t, minus one.
	i := sort.Search(len(tl.times), func(i int) bool { return tl.times[i] > t })
	if i == 0 {
		return 0
	}
	return i - 1
}

// AvailableAt returns the capacity available at time t.
func (tl *Timeline) AvailableAt(t core.Time) int {
	if t < 0 {
		t = 0
	}
	return tl.avail[tl.segIndex(t)]
}

// segEnd returns the exclusive end of segment i (Infinity for the last).
func (tl *Timeline) segEnd(i int) core.Time {
	if i+1 < len(tl.times) {
		return tl.times[i+1]
	}
	return core.Infinity
}

// windowEnd computes start+dur treating dur == Infinity as an unbounded
// window.
func windowEnd(start, dur core.Time) core.Time {
	if dur == core.Infinity {
		return core.Infinity
	}
	return start + dur
}

// MinAvailable returns the minimum capacity over [t0, t1). t1 may be
// core.Infinity. It panics if t0 >= t1 or t0 < 0.
func (tl *Timeline) MinAvailable(t0, t1 core.Time) int {
	if t0 < 0 || t0 >= t1 {
		panic(ErrBadWindow)
	}
	i := tl.segIndex(t0)
	min := tl.avail[i]
	for i++; i < len(tl.times) && tl.times[i] < t1; i++ {
		if tl.avail[i] < min {
			min = tl.avail[i]
		}
	}
	return min
}

// CanPlace reports whether q processors are available during the entire
// window [start, start+dur).
func (tl *Timeline) CanPlace(start, dur core.Time, q int) bool {
	if dur <= 0 {
		panic(ErrBadWindow)
	}
	return tl.MinAvailable(start, windowEnd(start, dur)) >= q
}

// FindSlot returns the earliest time t >= ready such that q processors are
// available during all of [t, t+dur). The boolean result is false only when
// no such t exists, i.e. the timeline's final (unbounded) capacity is below
// q and no finite window fits.
//
// The search walks segments once: a window is blocked by its earliest
// under-capacity segment, and the window can only become feasible once its
// start passes that segment's end, so the start jumps directly there.
func (tl *Timeline) FindSlot(ready core.Time, q int, dur core.Time) (core.Time, bool) {
	if dur <= 0 {
		panic(ErrBadWindow)
	}
	if ready < 0 {
		ready = 0
	}
	s := ready
	for {
		end := windowEnd(s, dur)
		// Find the first segment intersecting [s, end) with avail < q.
		i := tl.segIndex(s)
		blocked := -1
		for ; i < len(tl.times) && tl.times[i] < end; i++ {
			if tl.segEnd(i) <= s {
				continue
			}
			if tl.avail[i] < q {
				blocked = i
				break
			}
		}
		if blocked == -1 {
			return s, true
		}
		next := tl.segEnd(blocked)
		if next == core.Infinity {
			// Final capacity is below q: no slot will ever open.
			return 0, false
		}
		s = next
	}
}

// ensureBreak inserts a breakpoint at t (splitting its containing segment)
// and returns the index of the segment that now starts at t. No-op if a
// breakpoint already exists at t. t must be >= 0 and finite.
func (tl *Timeline) ensureBreak(t core.Time) int {
	i := sort.Search(len(tl.times), func(i int) bool { return tl.times[i] >= t })
	if i < len(tl.times) && tl.times[i] == t {
		return i
	}
	// Insert after segment i-1, copying its value.
	tl.times = append(tl.times, 0)
	copy(tl.times[i+1:], tl.times[i:])
	tl.times[i] = t
	tl.avail = append(tl.avail, 0)
	copy(tl.avail[i+1:], tl.avail[i:])
	tl.avail[i] = tl.avail[i-1]
	return i
}

// coalesce merges equal-valued adjacent segments in the index range
// [lo-1, hi+1] after a mutation touching segments [lo, hi].
func (tl *Timeline) coalesce(lo, hi int) {
	if lo < 1 {
		lo = 1
	}
	if hi > len(tl.times)-1 {
		hi = len(tl.times) - 1
	}
	// Rebuild in place over the affected span. A simple full sweep keeps
	// the code obviously correct; spans are small in practice.
	w := lo
	for r := lo; r < len(tl.times); r++ {
		if tl.avail[r] == tl.avail[w-1] {
			continue // merged into previous
		}
		tl.times[w] = tl.times[r]
		tl.avail[w] = tl.avail[r]
		w++
	}
	tl.times = tl.times[:w]
	tl.avail = tl.avail[:w]
}

// apply adds deltaQ to the capacity over [start, start+dur). Negative
// deltaQ consumes capacity (Commit); positive restores it (Release).
func (tl *Timeline) apply(start, dur core.Time, deltaQ int) error {
	if dur <= 0 || start < 0 {
		return ErrBadWindow
	}
	end := windowEnd(start, dur)
	if end != core.Infinity && end <= start {
		// start+dur overflowed past the Infinity sentinel; reject before
		// any mutation rather than operate on an inverted window.
		return ErrBadWindow
	}
	if deltaQ < 0 && tl.MinAvailable(start, end) < -deltaQ {
		return fmt.Errorf("%w: need %d on [%v,%v), min available %d",
			ErrInsufficient, -deltaQ, start, end, tl.MinAvailable(start, end))
	}
	if deltaQ > 0 {
		// Guard against releasing capacity that was never committed.
		max := tl.avail[tl.segIndex(start)]
		for i := tl.segIndex(start) + 1; i < len(tl.times) && tl.times[i] < end; i++ {
			if tl.avail[i] > max {
				max = tl.avail[i]
			}
		}
		if max+deltaQ > tl.m {
			return fmt.Errorf("%w: releasing %d would exceed m=%d", ErrOverRelease, deltaQ, tl.m)
		}
	}
	lo := tl.ensureBreak(start)
	hi := len(tl.times) // exclusive
	if end != core.Infinity {
		hi = tl.ensureBreak(end)
		// ensureBreak(end) may have shifted lo's index if end < start is
		// impossible; end > start so lo stays valid.
	}
	for i := lo; i < hi && i < len(tl.times); i++ {
		if end != core.Infinity && tl.times[i] >= end {
			break
		}
		tl.avail[i] += deltaQ
	}
	tl.coalesce(lo, hi)
	return nil
}

// Commit consumes q processors over [start, start+dur). It returns
// ErrInsufficient (leaving the timeline unchanged) if the window does not
// have q processors available throughout.
func (tl *Timeline) Commit(start, dur core.Time, q int) error {
	if q < 0 {
		return fmt.Errorf("profile: negative commit %d", q)
	}
	if q == 0 {
		return nil
	}
	return tl.apply(start, dur, -q)
}

// Release restores q processors over [start, start+dur), undoing a Commit.
// It returns ErrOverRelease if this would lift capacity above m anywhere in
// the window.
func (tl *Timeline) Release(start, dur core.Time, q int) error {
	if q < 0 {
		return fmt.Errorf("profile: negative release %d", q)
	}
	if q == 0 {
		return nil
	}
	return tl.apply(start, dur, q)
}

// NextBreakpoint returns the smallest breakpoint strictly greater than t,
// or (0, false) if none exists. Event-driven schedulers advance their clock
// with this: capacity (and hence any job's feasibility-at-now) only changes
// at breakpoints.
func (tl *Timeline) NextBreakpoint(t core.Time) (core.Time, bool) {
	i := sort.Search(len(tl.times), func(i int) bool { return tl.times[i] > t })
	if i == len(tl.times) {
		return 0, false
	}
	return tl.times[i], true
}

// Breakpoints returns a copy of all breakpoint times.
func (tl *Timeline) Breakpoints() []core.Time {
	return append([]core.Time(nil), tl.times...)
}

// NumSegments returns the number of constant segments.
func (tl *Timeline) NumSegments() int { return len(tl.times) }

// FreeArea returns the integral of available capacity over [t0, t1).
// t1 must be finite.
func (tl *Timeline) FreeArea(t0, t1 core.Time) int64 {
	if t0 < 0 || t1 == core.Infinity || t0 > t1 {
		panic(ErrBadWindow)
	}
	if t0 == t1 {
		return 0
	}
	var area int64
	i := tl.segIndex(t0)
	for ; i < len(tl.times); i++ {
		segStart := core.MaxTime(tl.times[i], t0)
		segEnd := core.MinTime(tl.segEnd(i), t1)
		if segStart >= t1 {
			break
		}
		if segEnd > segStart {
			area += int64(segEnd-segStart) * int64(tl.avail[i])
		}
	}
	return area
}

// FirstTimeWithFreeArea returns the smallest t such that FreeArea(0, t) >=
// w. The boolean is false if the total area never reaches w, which can only
// happen when the final capacity is 0.
func (tl *Timeline) FirstTimeWithFreeArea(w int64) (core.Time, bool) {
	if w <= 0 {
		return 0, true
	}
	var acc int64
	for i := range tl.times {
		end := tl.segEnd(i)
		a := tl.avail[i]
		if end == core.Infinity {
			if a == 0 {
				return 0, false
			}
			need := w - acc
			steps := (need + int64(a) - 1) / int64(a)
			return tl.times[i] + core.Time(steps), true
		}
		segArea := int64(end-tl.times[i]) * int64(a)
		if acc+segArea >= w {
			need := w - acc
			steps := (need + int64(a) - 1) / int64(a)
			return tl.times[i] + core.Time(steps), true
		}
		acc += segArea
	}
	return 0, false // unreachable: last segment always infinite
}

// String renders the timeline's segments for debugging.
func (tl *Timeline) String() string {
	var b strings.Builder
	for i := range tl.times {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "[%v,%v)=%d", tl.times[i], tl.segEnd(i), tl.avail[i])
	}
	return b.String()
}
