// Package restree implements the "tree" capacity-index backend: the
// breakpoints of the available-capacity step function in flat leaves of up
// to 64 consecutive segments under one sorted directory, after the
// reservation tree of de Assunção et al. (its min aggregate for admission,
// its earliest-fit alternative-offer query; not its binary shape).
//
// A leaf is two parallel arrays, 64 starts and 64 capacities, 12 cache
// lines; leaves live in one pointer-free arena, are named by int32 index
// and are reused through a free list. The directory keeps, per leaf and in
// time order, its first start (a dense []core.Time, which is what a lookup
// binary-searches) and its arena index, entry count and the minimum and
// maximum capacity of its segments. The segments tile [0, +inf), so one
// ends where the next starts — the next slot, or the next leaf's first
// start — and no end is stored. Nothing holds a pointer, so the garbage
// collector never looks inside, Clone is three copies, and a steady-state
// Commit/Release cycle has nothing to allocate.
//
// Why leaves rather than a node per segment: at 10⁵ reservations a binary
// tree is 10⁵ nodes reached by pointer-chasing, a mutation is four
// root-to-leaf passes that rewrite aggregates all the way up, and an
// earliest-fit visits blocking segments one node at a time. Here a lookup
// is two compares at the finger (below) or a binary search of the
// directory and of one leaf, O(log n), and
//
//   - admission checks (MinAvailable, CanPlace) scan the window's first and
//     last leaf and read min/max for every leaf wholly inside it;
//   - earliest-fit (FindSlot / EarliestFit) sweeps contiguous arrays in
//     time order and decides per leaf before touching it: a leaf with no
//     segment wide enough is stepped over while the candidate start is
//     open, one with no blocking segment while it is set — O(b/64 + log n)
//     for a run of b blocking segments, plus the leaves it has to read;
//   - a mutation (Commit/Release) finds its window once, and when the
//     window and both its neighbours sit in one leaf with two slots to
//     spare — about six times in seven at the benchmark's density —
//     inserts, adds and removes there: a few short moves, and min/max
//     recomputed only when the old extreme was touched. Windows that span
//     leaves, fill one or merge across a boundary take the slower
//     cut / add / heal path, where a full leaf splits in halves, an emptied
//     one is dropped and one that fits with a neighbour in half a leaf is
//     absorbed. A split or a drop moves the directory's tail, O(n/64)
//     with a memmove's constant.
//
// The finger is the segment holding the start of the last Commit or
// Release that took the one-leaf path, or the origin's after one that did
// not. A lookup tries that segment and the next one in its leaf before it
// searches: a list scheduler asks about the instant it just committed at
// or about the breakpoint after it, so about three lookups in five stop
// there in LSRC. Only the two mutations write the finger; every read
// leaves the tree untouched, so any number of goroutines may read a tree
// that nobody is mutating, such as a snapshot's clone, with no lock.
//
// Measured against the arena AVL this replaced, FindSlot+Commit+Release at
// the admission benchmark's density (m=256, half the prefix booked), ns per
// cycle at 10²/10³/10⁴/10⁵/10⁶ reservations (1.8 M segments in 42 k leaves
// at the top): narrow requests 691/1947/2178/3164/6760 → 464/801/880/968/
// 1430, near-machine-wide ones 730/2698/5954/17296/38718 → 413/1012/1508/
// 2645/3755. The directory's moves do not show at 10⁶, so there is no inner
// level; and a tree of one leaf is a sorted array, so there is no size
// below which the array backend is the faster one.
//
// The tree keeps exactly the canonical form of profile.Timeline: strictly
// increasing breakpoints and no equal-valued neighbours. Every observable
// — capacities, slots, breakpoints, segment counts, free areas and error
// conditions — therefore agrees bit-for-bit with the array backend, which
// the differential tests and the fuzz harness in this package enforce.
//
// The package registers itself with the profile backend registry under the
// name "tree": the service's index (resd.Config.Backend "") and the
// paper CLIs' default -backend; a library caller asks for it with
// profile.NewIndex("tree", m).
package restree

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/profile"
)

func init() {
	profile.RegisterBackend("tree", func(m int) profile.CapacityIndex { return New(m) })
}

// leafCap is the number of segments a leaf holds; half of it is where a full
// leaf splits and the size up to which two neighbours are merged.
const leafCap = 64

// leaf is a run of consecutive segments: segment k starts at start[k], has
// avail[k] processors free and ends where the next one starts. How many
// slots are in use is the directory's to know. On the free list avail[0]
// names the next free leaf.
type leaf struct {
	start [leafCap]core.Time
	avail [leafCap]int32
}

// entry is what the directory knows about one leaf besides its first start.
type entry struct {
	leaf   int32 // arena index
	n      int32 // segments in use, 1..leafCap
	mn, mx int32 // min/max avail over them
}

// Tree is the capacity index. The zero value is not usable; construct with
// New or FromReservations.
type Tree struct {
	m      int
	leaves []leaf      // arena
	first  []core.Time // first[d]: first start of the d-th leaf in time order; first[0] == 0
	dir    []entry     // parallel to first
	free   int32       // head of the free list, -1 when empty
	size   int         // live segments
	// fin is the finger: directory position and slot of a live segment,
	// where the last mutation left off. Only apply writes it.
	fin struct{ d, k int32 }
}

// Tree implements the backend seam.
var _ profile.CapacityIndex = (*Tree)(nil)

// New returns a tree with constant capacity m on [0, +inf).
func New(m int) *Tree {
	if m < 0 || m >= math.MaxInt32 {
		panic("restree: capacity out of range")
	}
	t := &Tree{m: m, size: 1, free: -1, leaves: make([]leaf, 1), first: []core.Time{0}}
	t.leaves[0].avail[0] = int32(m)
	t.dir = []entry{{n: 1, mn: int32(m), mx: int32(m)}}
	return t
}

// FromReservations returns the availability left by the reservations on an
// m-processor machine, or a wrapped profile.ErrInsufficient if they
// oversubscribe it.
func FromReservations(m int, res []core.Reservation) (*Tree, error) {
	t := New(m)
	for _, r := range res {
		if err := t.Commit(r.Start, r.Len, r.Procs); err != nil {
			return nil, fmt.Errorf("restree: reservation %d: %w", r.ID, err)
		}
	}
	return t, nil
}

// M returns the machine size the tree was created with.
func (t *Tree) M() int { return t.m }

// NumSegments returns the number of constant segments.
func (t *Tree) NumSegments() int { return t.size }

// Clone returns an independent deep copy: arena and directory, cut to
// their lengths.
func (t *Tree) Clone() *Tree {
	c := *t
	c.leaves = append(make([]leaf, 0, len(t.leaves)), t.leaves...)
	c.first = append(make([]core.Time, 0, len(t.first)), t.first...)
	c.dir = append(make([]entry, 0, len(t.dir)), t.dir...)
	return &c
}

// CloneIndex implements profile.CapacityIndex.
func (t *Tree) CloneIndex() profile.CapacityIndex { return t.Clone() }

// lastLE returns the greatest i with s[i] <= at; s is increasing and
// s[0] <= at.
func lastLE(s []core.Time, at core.Time) int {
	lo, hi := 0, len(s)
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); s[mid] <= at {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// locate returns the segment containing at (at >= 0): directory position,
// the entry and leaf there, and the slot. It tries the finger's segment and
// the next one in its leaf first (see the package comment), and
// binary-searches the directory and the leaf only when at lies in neither.
func (t *Tree) locate(at core.Time) (d int, e *entry, l *leaf, k int) {
	d, k = int(t.fin.d), int(t.fin.k)
	e = &t.dir[d]
	l = &t.leaves[e.leaf]
	if at >= l.start[k] {
		if at < t.slotEnd(d, e, l, k) {
			return d, e, l, k
		}
		// At the leaf's last slot both ends are leafEnd(d), so this misses.
		if at < t.slotEnd(d, e, l, k+1) {
			return d, e, l, k + 1
		}
	}
	d = lastLE(t.first, at)
	e = &t.dir[d]
	l = &t.leaves[e.leaf]
	return d, e, l, lastLE(l.start[:e.n], at)
}

// leafEnd returns where the segments after leaf d start.
func (t *Tree) leafEnd(d int) core.Time {
	if d+1 < len(t.first) {
		return t.first[d+1]
	}
	return core.Infinity
}

// slotEnd returns where segment k of leaf d (entry e, leaf l) ends.
func (t *Tree) slotEnd(d int, e *entry, l *leaf, k int) core.Time {
	if k+1 < int(e.n) {
		return l.start[k+1]
	}
	return t.leafEnd(d)
}

// CapacityAt is the paper-facing name for AvailableAt.
func (t *Tree) CapacityAt(at core.Time) int { return t.AvailableAt(at) }

// AvailableAt implements profile.CapacityIndex: the capacity of the segment
// with the greatest start <= at.
func (t *Tree) AvailableAt(at core.Time) int {
	_, _, l, k := t.locate(max(at, 0))
	return int(l.avail[k])
}

// windowEnd computes start+dur treating dur == Infinity as unbounded.
func windowEnd(start, dur core.Time) core.Time {
	if dur == core.Infinity {
		return core.Infinity
	}
	return start + dur
}

// extent returns the minimum and maximum capacity over the segments that
// meet [a, b), 0 <= a < b: the one containing a and those starting inside
// the window.
func (t *Tree) extent(a, b core.Time) (mn, mx int32) {
	d, e, l, k := t.locate(a)
	mn, mx = l.avail[k], l.avail[k]
	for k++; k < int(e.n); k++ {
		if l.start[k] >= b {
			return mn, mx
		}
		mn, mx = min(mn, l.avail[k]), max(mx, l.avail[k])
	}
	return t.extentFrom(d+1, b, mn, mx)
}

// extentFrom folds into mn and mx the segments of leaves d, d+1, ... that
// start before b: a leaf wholly before b by its aggregates, the one b falls
// in by its slots.
func (t *Tree) extentFrom(d int, b core.Time, mn, mx int32) (int32, int32) {
	for ; d < len(t.first) && t.first[d] < b; d++ {
		e := &t.dir[d]
		if t.leafEnd(d) <= b {
			mn, mx = min(mn, e.mn), max(mx, e.mx)
			continue
		}
		l := &t.leaves[e.leaf]
		for k := 0; k < int(e.n) && l.start[k] < b; k++ {
			mn, mx = min(mn, l.avail[k]), max(mx, l.avail[k])
		}
	}
	return mn, mx
}

// MinAvailable implements profile.CapacityIndex. It panics if t0 >= t1 or
// t0 < 0, mirroring profile.Timeline.
func (t *Tree) MinAvailable(t0, t1 core.Time) int {
	if t0 < 0 || t0 >= t1 {
		panic(profile.ErrBadWindow)
	}
	mn, _ := t.extent(t0, t1)
	return int(mn)
}

// CanPlace reports whether q processors are available during the entire
// window [start, start+dur).
func (t *Tree) CanPlace(start, dur core.Time, q int) bool {
	if dur <= 0 {
		panic(profile.ErrBadWindow)
	}
	return t.MinAvailable(start, windowEnd(start, dur)) >= q
}

// EarliestFit returns the earliest time s >= notBefore such that q
// processors are available during all of [s, s+dur): the de Assunção-style
// alternative-offer query. The boolean is false only when the final
// (unbounded) capacity is below q and no finite window fits.
//
// A window can only start at notBefore or where a blocking segment
// (capacity < q) ends, so the search is one sweep in time order from the
// segment containing notBefore, carrying the candidate start s: a blocking
// segment starting before s+dur opens the candidate again (blocked), the
// next free segment's start sets it, and a blocking segment starting at or
// past s+dur ends the search. A whole leaf is decided from the directory:
// while blocked, one whose maximum is below q cannot set the candidate;
// while not, one starting at or past s+dur answers s and one whose minimum
// is at least q cannot block.
func (t *Tree) EarliestFit(q int, dur, notBefore core.Time) (core.Time, bool) {
	if dur <= 0 {
		panic(profile.ErrBadWindow)
	}
	// avail lies in [0, m], so clamping q there changes no comparison.
	need, ready := int32(min(max(q, 0), t.m+1)), max(notBefore, 0)
	s, blocked := ready, false
	for d, k := lastLE(t.first, ready), -1; d < len(t.dir); d, k = d+1, 0 {
		e := &t.dir[d]
		if blocked {
			if e.mx < need {
				continue
			}
		} else if t.first[d] >= windowEnd(s, dur) {
			return s, true
		} else if e.mn >= need {
			continue
		}
		l := &t.leaves[e.leaf]
		if k < 0 {
			k = lastLE(l.start[:e.n], ready)
		}
		for ; k < int(e.n); k++ {
			if l.avail[k] < need {
				if !blocked && l.start[k] >= windowEnd(s, dur) {
					return s, true
				}
				blocked = true
			} else if blocked {
				s, blocked = max(l.start[k], ready), false
			}
		}
	}
	if blocked {
		return 0, false
	}
	return s, true
}

// FindSlot implements profile.CapacityIndex in terms of EarliestFit.
func (t *Tree) FindSlot(ready core.Time, q int, dur core.Time) (core.Time, bool) {
	return t.EarliestFit(q, dur, ready)
}

// insert puts segment (start, avail) in slot k of a leaf with n in use.
func (l *leaf) insert(n, k int, start core.Time, avail int32) {
	copy(l.start[k+1:n+1], l.start[k:n])
	copy(l.avail[k+1:n+1], l.avail[k:n])
	l.start[k], l.avail[k] = start, avail
}

// remove takes slot k out of a leaf with n in use.
func (l *leaf) remove(n, k int) {
	copy(l.start[k:], l.start[k+1:n])
	copy(l.avail[k:], l.avail[k+1:n])
}

// rescan recomputes leaf d's min and max.
func (t *Tree) rescan(d int) {
	e := &t.dir[d]
	a := t.leaves[e.leaf].avail[:e.n]
	e.mn, e.mx = slices.Min(a), slices.Max(a)
}

// alloc returns a leaf's arena index, reusing a freed one when there is
// one. Growing the arena moves it: no *leaf may be held across alloc.
func (t *Tree) alloc() int32 {
	i := t.free
	if i >= 0 {
		t.free = t.leaves[i].avail[0]
		return i
	}
	t.leaves = append(t.leaves, leaf{})
	return int32(len(t.leaves) - 1)
}

// split moves the upper half of the full leaf d to a new leaf at d+1.
func (t *Tree) split(d int) {
	const half = leafCap / 2
	r := t.alloc()
	lo, hi := &t.leaves[t.dir[d].leaf], &t.leaves[r]
	copy(hi.start[:], lo.start[half:])
	copy(hi.avail[:], lo.avail[half:])
	t.dir[d].n = half
	t.first = slices.Insert(t.first, d+1, hi.start[0])
	t.dir = slices.Insert(t.dir, d+1, entry{leaf: r, n: leafCap - half})
	t.rescan(d)
	t.rescan(d + 1)
}

// drop takes leaf d (d > 0) out of the directory and frees it.
func (t *Tree) drop(d int) {
	i := t.dir[d].leaf
	t.leaves[i].avail[0], t.free = t.free, i
	t.first = slices.Delete(t.first, d, d+1)
	t.dir = slices.Delete(t.dir, d, d+1)
}

// absorb merges leaf d with a neighbour if the two fit in half a leaf, so
// that what a split made cannot be unmade by the next release.
func (t *Tree) absorb(d int) {
	if d+1 == len(t.dir) || t.dir[d].n+t.dir[d+1].n > leafCap/2 {
		if d--; d < 0 || t.dir[d].n+t.dir[d+1].n > leafCap/2 {
			return
		}
	}
	a, b := &t.dir[d], &t.dir[d+1]
	la, lb := &t.leaves[a.leaf], &t.leaves[b.leaf]
	copy(la.start[a.n:], lb.start[:b.n])
	copy(la.avail[a.n:], lb.avail[:b.n])
	a.n, a.mn, a.mx = a.n+b.n, min(a.mn, b.mn), max(a.mx, b.mx)
	t.drop(d + 1)
}

// cut makes at a breakpoint, splitting the segment it falls in; Infinity
// never is one. A new breakpoint lies inside a segment of its leaf, so it
// never lands in slot 0 and no directory key changes.
func (t *Tree) cut(at core.Time) {
	d, e, l, k := t.locate(at)
	if l.start[k] == at || at == core.Infinity {
		return
	}
	if e.n == leafCap {
		t.split(d)
		_, e, l, k = t.locate(at)
	}
	l.insert(int(e.n), k+1, at, l.avail[k])
	e.n++
	t.size++
}

// heal removes the breakpoint at if the capacity is the same on both sides,
// so that the earlier segment absorbs the later one; the origin has no
// earlier side and Infinity is no breakpoint.
func (t *Tree) heal(at core.Time) {
	if at == 0 || at == core.Infinity {
		return
	}
	d, e, l, k := t.locate(at)
	below := l.avail[max(k-1, 0)]
	if k == 0 { // at > 0, so d > 0: the earlier segment is the previous leaf's last
		p := &t.dir[d-1]
		below = t.leaves[p.leaf].avail[p.n-1]
	}
	if below != l.avail[k] {
		return
	}
	t.size--
	if e.n == 1 {
		t.drop(d)
		return
	}
	l.remove(int(e.n), k)
	e.n--
	t.first[d] = l.start[0]
	t.rescan(d)
	t.absorb(d)
}

// apply adds deltaQ to the capacity over [start, start+dur), validating
// against the same bounds (and with the same error identities) as the
// array Timeline.
func (t *Tree) apply(start, dur core.Time, deltaQ int) error {
	if dur <= 0 || start < 0 {
		return profile.ErrBadWindow
	}
	end := windowEnd(start, dur)
	if end != core.Infinity && end <= start {
		// start+dur overflowed past the Infinity sentinel; reject before
		// any mutation rather than split on an inverted window.
		return profile.ErrBadWindow
	}
	// Find the window once: k0 is the segment containing start, k1 the last
	// one of its leaf starting before end, next where the one after k1
	// starts. The window goes on into later leaves unless next >= end.
	d, e, l, k0 := t.locate(start)
	n, k1 := int(e.n), k0
	mn, mx := l.avail[k0], l.avail[k0]
	for k1+1 < n && l.start[k1+1] < end {
		k1++
		mn, mx = min(mn, l.avail[k1]), max(mx, l.avail[k1])
	}
	next := t.leafEnd(d)
	if k1+1 < n {
		next = l.start[k1+1]
	}
	within := next >= end
	if !within {
		mn, mx = t.extentFrom(d+1, end, mn, mx)
	}
	if deltaQ < 0 && int(mn) < -deltaQ {
		return fmt.Errorf("%w: need %d on [%v,%v), min available %d",
			profile.ErrInsufficient, -deltaQ, start, end, mn)
	}
	if deltaQ > 0 && int(mx)+deltaQ > t.m {
		return fmt.Errorf("%w: releasing %d would exceed m=%d",
			profile.ErrOverRelease, deltaQ, t.m)
	}
	// A uniform delta over [start, end) leaves interior neighbours
	// different, so only the two boundaries can appear or merge.
	delta := int32(deltaQ)
	cutStart, cutEnd := l.start[k0] < start, next > end
	// The one-leaf path needs the window, the segment before a breakpoint
	// at start and the segment at a breakpoint at end all in this leaf, and
	// room for two new breakpoints.
	if !within || n > leafCap-2 || (k0 == 0 && d > 0 && !cutStart) ||
		(k1+1 == n && end != core.Infinity && !cutEnd) {
		// Splits, drops and merges move slots and leaves under the finger;
		// leaf 0's slot 0 is live throughout, as leaf 0 is never dropped.
		t.fin.d, t.fin.k = 0, 0
		t.cut(end)
		t.cut(start)
		t.addRange(start, end, delta)
		t.heal(end)
		t.heal(start)
		return nil
	}
	// The end first, while k1 still names the segment before it; then the
	// start, the delta, and the one merge the start can need.
	if cutEnd {
		l.insert(n, k1+1, end, l.avail[k1])
		n++
	} else if k1+1 < n && l.avail[k1]+delta == l.avail[k1+1] {
		l.remove(n, k1+1)
		n--
	}
	if cutStart {
		l.insert(n, k0+1, start, l.avail[k0])
		n, k0, k1 = n+1, k0+1, k1+1
	}
	for k := k0; k <= k1; k++ {
		l.avail[k] += delta
	}
	if k0 > 0 && l.avail[k0] == l.avail[k0-1] {
		l.remove(n, k0)
		n, k0 = n-1, k0-1
	}
	t.fin.d, t.fin.k = int32(d), int32(k0) // the segment holding start
	t.size += n - int(e.n)
	shrunk := n < int(e.n)
	e.n = int32(n)
	// Every value that left the window moved by delta towards one extreme,
	// and a removed slot's value lives on in its neighbour: the extreme on
	// that side is a min/max away, the other needs a look only if the
	// window held it.
	if delta < 0 {
		e.mn = min(e.mn, mn+delta)
		if mx == e.mx {
			e.mx = slices.Max(l.avail[:n])
		}
	} else {
		e.mx = max(e.mx, mx+delta)
		if mn == e.mn {
			e.mn = slices.Min(l.avail[:n])
		}
	}
	if shrunk && n <= leafCap/2 {
		t.fin.d, t.fin.k = 0, 0 // absorb may fold leaf d into d-1
		t.absorb(d)
	}
	return nil
}

// addRange adds delta to every segment starting in [lo, hi); lo is a
// breakpoint.
func (t *Tree) addRange(lo, hi core.Time, delta int32) {
	d, e, l, k := t.locate(lo)
	for {
		j := k
		for ; j < int(e.n) && l.start[j] < hi; j++ {
			l.avail[j] += delta
		}
		if k == 0 && j == int(e.n) {
			e.mn, e.mx = e.mn+delta, e.mx+delta
		} else {
			t.rescan(d)
		}
		if d++; d == len(t.dir) || t.first[d] >= hi {
			return
		}
		e, k = &t.dir[d], 0
		l = &t.leaves[e.leaf]
	}
}

// Commit consumes q processors over [start, start+dur). It returns a
// wrapped profile.ErrInsufficient (leaving the tree unchanged) if the
// window does not have q processors available throughout.
func (t *Tree) Commit(start, dur core.Time, q int) error {
	if q < 0 {
		return fmt.Errorf("restree: negative commit %d", q)
	}
	if q == 0 {
		return nil
	}
	return t.apply(start, dur, -q)
}

// Release restores q processors over [start, start+dur), undoing a Commit.
// It returns a wrapped profile.ErrOverRelease if this would lift capacity
// above m anywhere in the window.
func (t *Tree) Release(start, dur core.Time, q int) error {
	if q < 0 {
		return fmt.Errorf("restree: negative release %d", q)
	}
	if q == 0 {
		return nil
	}
	return t.apply(start, dur, q)
}

// NextBreakpoint returns the smallest breakpoint strictly greater than at,
// or (0, false) if none exists.
func (t *Tree) NextBreakpoint(at core.Time) (core.Time, bool) {
	if at < 0 {
		return 0, true
	}
	d, e, l, k := t.locate(at)
	if k+1 < int(e.n) {
		return l.start[k+1], true
	}
	if d+1 < len(t.first) {
		return t.first[d+1], true
	}
	return 0, false
}

// walk visits, in time order, the segments that end after from (from >= 0),
// until the callback returns false.
func (t *Tree) walk(from core.Time, visit func(start, end core.Time, avail int) bool) {
	d, e, l, k := t.locate(from)
	for {
		for ; k+1 < int(e.n); k++ {
			if !visit(l.start[k], l.start[k+1], int(l.avail[k])) {
				return
			}
		}
		if !visit(l.start[k], t.leafEnd(d), int(l.avail[k])) {
			return
		}
		if d++; d == len(t.dir) {
			return
		}
		e, k = &t.dir[d], 0
		l = &t.leaves[e.leaf]
	}
}

// Breakpoints returns a copy of all breakpoint times.
func (t *Tree) Breakpoints() []core.Time {
	out := make([]core.Time, 0, t.size)
	for _, e := range t.dir {
		out = append(out, t.leaves[e.leaf].start[:e.n]...)
	}
	return out
}

// FreeArea returns the integral of available capacity over [t0, t1).
// t1 must be finite.
func (t *Tree) FreeArea(t0, t1 core.Time) int64 {
	if t0 < 0 || t1 == core.Infinity || t0 > t1 {
		panic(profile.ErrBadWindow)
	}
	var area int64
	t.walk(t0, func(start, end core.Time, avail int) bool {
		if start >= t1 {
			return false
		}
		area += int64(min(end, t1)-max(start, t0)) * int64(avail)
		return true
	})
	return area
}

// FirstTimeWithFreeArea returns the smallest t such that FreeArea(0, t) >=
// w. The boolean is false if the total area never reaches w, which can
// only happen when the final capacity is 0.
func (t *Tree) FirstTimeWithFreeArea(w int64) (core.Time, bool) {
	if w <= 0 {
		return 0, true
	}
	var acc int64
	var at core.Time
	found := false
	t.walk(0, func(start, end core.Time, avail int) bool {
		if end != core.Infinity {
			if segArea := int64(end-start) * int64(avail); acc+segArea < w {
				acc += segArea
				return true
			}
		}
		if avail > 0 {
			steps := (w - acc + int64(avail) - 1) / int64(avail)
			at, found = start+core.Time(steps), true
		}
		return false
	})
	return at, found
}

// String renders the tree's segments in the same format as
// profile.Timeline, for debugging and differential assertions.
func (t *Tree) String() string {
	var b strings.Builder
	t.walk(0, func(start, end core.Time, avail int) bool {
		if start > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "[%v,%v)=%d", start, end, avail)
		return true
	})
	return b.String()
}
