// Package restree implements the "tree" capacity-index backend: the
// breakpoints of the available-capacity step function in flat leaves of up
// to 64 consecutive segments under one sorted directory, after the
// reservation tree of de Assunção et al. (its min aggregate for admission,
// its earliest-fit alternative-offer query; not its binary shape).
//
// A leaf is two parallel arrays, 64 starts and 64 capacities, 512 bytes or
// eight cache lines: a start is a uint32 offset from the leaf's directory
// key, which is its first start, so slot 0's offset is 0. Leaves live in
// one pointer-free arena, are named by int32 index and are reused through a
// free list. The directory keeps, per leaf and in time order, its key (a
// dense []core.Time, which is what a lookup binary-searches) and its arena
// index, entry count and the minimum and maximum capacity of its segments.
// The segments tile [0, +inf), so one ends where the next starts — the next
// slot, or the next leaf's key — and no end is stored. Nothing holds a
// pointer, so the garbage collector never looks inside, Clone is three
// copies, and a steady-state Commit/Release cycle has nothing to allocate.
//
// Every breakpoint of a leaf lies within 2³²−1 ticks of its key, and a
// read compares an instant's distance from the key with the widened
// offsets. A split and a merge at slot 0 move a key forward, which only
// shrinks offsets. A new breakpoint farther than that from its leaf's key
// comes after all of the leaf's breakpoints, and it opens a one-segment
// leaf of its own. A lend to the next leaf moves that leaf's key back, and
// a lend or a merge into the previous leaf puts breakpoints under its key:
// either is declined when a breakpoint would fall out of reach. A leaf
// spans about 900 ticks at the admission benchmark's density, far inside
// that reach; the rule is what keeps instants near core.Infinity exact.
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
//   - earliest-fit (FindSlot) sweeps contiguous arrays in time order and
//     decides per leaf before touching it: a leaf with no segment wide
//     enough is stepped over while the candidate start is open, one with
//     no blocking segment while it is set — O(b/64 + log n) for a run of b
//     blocking segments, plus the leaves it has to read;
//   - a mutation (Commit/Release) walks its window once, as the admission
//     checks do, and edits it in place whatever leaves it spans. A uniform
//     delta changes the step function only at the window's two ends, so
//     that is all there is to edit besides the capacities: it inserts the
//     end and the start where they are new, adds the delta over every leaf
//     the window covers — a leaf wholly inside takes it on its min and
//     max, a partly covered one looks for a new extreme only when the old
//     one was touched — and removes a breakpoint at either end that the
//     delta made redundant: inside a leaf, or at a leaf's slot 0, where
//     the key moves on or a one-segment leaf is dropped. A leaf that came
//     out with fewer segments and fits with a neighbour in half a leaf is
//     absorbed. A split, an opened leaf or a drop moves the directory's
//     tail, O(n/64) with a memmove's constant.
//
// A leaf with no slot for a new breakpoint makes room before the mutation
// edits it (makeRoom): it lends segments to a neighbour with room, opens
// the next leaf at a breakpoint past its last one, or else splits in
// halves. The lend is what keeps a random-order book's leaves about
// four-fifths full as built and three-quarters after a million
// cancel/admit cycles at the admission benchmark's density, where splits
// alone settle at ln 2 ≈ 0.69 and then drift to a half; the opened leaf is
// what keeps a time-ordered build's leaves full.
//
// The finger is the segment holding the start of the last Commit or
// Release, or the origin's when an absorb followed it. A lookup tries that
// segment and the next one in its leaf before it searches: a list scheduler
// asks about the instant it just committed at or about the breakpoint after
// it, so about three lookups in five stop there in LSRC. Only the two
// mutations write the finger; every read leaves the tree untouched, so any
// number of goroutines may read a tree that nobody is mutating, such as a
// snapshot's clone, with no lock.
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
// A tree is built from reservations (profile.IndexFromReservations on
// this backend) by profile.CommitReservations: one Commit per nonzero
// segment of the unavailability U, in time order. Each lands past the
// last breakpoint, so the tree holds only the breakpoints it ends with
// and every leaf but the last is full: the 24 booked trees of the
// benchmark's lsrc-batch are 95 leaves in an arena of 104. A resd
// shard's recovery still commits its records one by one, in id order,
// which is random in time: lends keep those leaves about four-fifths
// full.
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

// leafCap is the number of segments a leaf holds; half of it is the size
// up to which two neighbours are merged.
const leafCap = 64

// lendMin is the fewest free slots a neighbour needs before a leaf with no
// room lends it segments. It takes half of them, so that afterwards both
// leaves have two slots free: room for a window's two new breakpoints.
const lendMin = 4

// leaf is a run of consecutive segments: segment k of the leaf at directory
// position d starts at first[d]+off[k] (off[0] == 0), has avail[k]
// processors free and ends where the next one starts. How many slots are
// in use is the directory's to know. On the free list avail[0] names the
// next free leaf.
type leaf struct {
	off   [leafCap]uint32
	avail [leafCap]int32
}

// entry is what the directory knows about one leaf besides its first start.
type entry struct {
	leaf   int32 // arena index
	n      int32 // segments in use, 1..leafCap
	mn, mx int32 // min/max avail over them
}

// Tree is the capacity index. The zero value is not usable; construct with
// New.
type Tree struct {
	m      int
	leaves []leaf      // arena
	first  []core.Time // first[d]: key (first start) of the d-th leaf in time order; first[0] == 0
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
// s[0] <= at. A leaf's offsets are searched with at taken from its key.
func lastLE[T core.Time | uint32](s []T, at core.Time) int {
	lo, hi := 0, len(s)
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); core.Time(s[mid]) <= at {
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
	if at >= t.start(d, l, k) {
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
	return d, e, l, lastLE(l.off[:e.n], at-t.first[d])
}

// start returns where segment k of leaf d (leaf l) starts.
func (t *Tree) start(d int, l *leaf, k int) core.Time {
	return t.first[d] + core.Time(l.off[k])
}

// offset returns at's offset from leaf d's key (at >= first[d]) and whether
// a slot can hold it: every breakpoint of a leaf lies within 2³²−1 ticks of
// its key.
func (t *Tree) offset(d int, at core.Time) (uint32, bool) {
	rel := at - t.first[d]
	return uint32(rel), rel <= math.MaxUint32
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
		return t.start(d, l, k+1)
	}
	return t.leafEnd(d)
}

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

// find walks the window [a, b), 0 <= a < b, once: the segment holding a
// is slot k0 of leaf d0, the last one starting before b is slot k1 of leaf
// d1, and mn and mx are the least and greatest capacity over the segments
// from one to the other. It reads every leaf from d0 to d1, one wholly
// inside the window by its aggregates, the others by their slots.
func (t *Tree) find(a, b core.Time) (d0, k0, d1, k1 int, mn, mx int32) {
	d, e, l, k := t.locate(a)
	d0, k0 = d, k
	mn, mx = l.avail[k], l.avail[k]
	for {
		if k == 0 && t.leafEnd(d) <= b {
			k, mn, mx = int(e.n)-1, min(mn, e.mn), max(mx, e.mx)
		} else {
			for rb := b - t.first[d]; k+1 < int(e.n) && core.Time(l.off[k+1]) < rb; {
				k++
				mn, mx = min(mn, l.avail[k]), max(mx, l.avail[k])
			}
		}
		// A later leaf starts before b only when k is its leaf's last slot.
		if d+1 == len(t.first) || t.first[d+1] >= b {
			return d0, k0, d, k, mn, mx
		}
		d, k = d+1, 0
		e = &t.dir[d]
		l = &t.leaves[e.leaf]
		mn, mx = min(mn, l.avail[0]), max(mx, l.avail[0])
	}
}

// MinAvailable implements profile.CapacityIndex. It panics if t0 >= t1 or
// t0 < 0, mirroring profile.Timeline.
func (t *Tree) MinAvailable(t0, t1 core.Time) int {
	if t0 < 0 || t0 >= t1 {
		panic(profile.ErrBadWindow)
	}
	_, _, _, _, mn, _ := t.find(t0, t1)
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

// FindSlot implements profile.CapacityIndex: the earliest time s >= ready
// such that q processors are available during all of [s, s+dur), the de
// Assunção-style alternative-offer query. The boolean is false only when
// the final (unbounded) capacity is below q and no finite window fits.
//
// A window can only start at ready or where a blocking segment
// (capacity < q) ends, so the search is one sweep in time order from the
// segment containing ready, carrying the candidate start s: a blocking
// segment starting before s+dur opens the candidate again (blocked), the
// next free segment's start sets it, and a blocking segment starting at or
// past s+dur ends the search. A whole leaf is decided from the directory:
// while blocked, one whose maximum is below q cannot set the candidate;
// while not, one starting at or past s+dur answers s and one whose minimum
// is at least q cannot block.
func (t *Tree) FindSlot(ready core.Time, q int, dur core.Time) (core.Time, bool) {
	if dur <= 0 {
		panic(profile.ErrBadWindow)
	}
	// avail lies in [0, m], so clamping q there changes no comparison.
	need, ready := int32(min(max(q, 0), t.m+1)), max(ready, 0)
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
		l, key := &t.leaves[e.leaf], t.first[d]
		if k < 0 {
			k = lastLE(l.off[:e.n], ready-key)
		}
		for ; k < int(e.n); k++ {
			if l.avail[k] < need {
				if !blocked && key+core.Time(l.off[k]) >= windowEnd(s, dur) {
					return s, true
				}
				blocked = true
			} else if blocked {
				s, blocked = max(key+core.Time(l.off[k]), ready), false
			}
		}
	}
	if blocked {
		return 0, false
	}
	return s, true
}

// insert puts segment (off, avail) in slot k of a leaf with n in use.
func (l *leaf) insert(n, k int, off uint32, avail int32) {
	copy(l.off[k+1:n+1], l.off[k:n])
	copy(l.avail[k+1:n+1], l.avail[k:n])
	l.off[k], l.avail[k] = off, avail
}

// remove takes slot k out of a leaf with n in use.
func (l *leaf) remove(n, k int) {
	copy(l.off[k:], l.off[k+1:n])
	copy(l.avail[k:], l.avail[k+1:n])
}

// rebase makes slot 0's start the key of a leaf with n in use: it takes
// off[0] from every offset and returns it, by how much the key moves.
// Offsets only shrink, so they still fit.
func (l *leaf) rebase(n int) core.Time {
	by := l.off[0]
	for k := range l.off[:n] {
		l.off[k] -= by
	}
	return core.Time(by)
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

// link enters leaf e into the directory at position d with the given key.
func (t *Tree) link(d int, key core.Time, e entry) {
	t.first = slices.Insert(t.first, d, key)
	t.dir = slices.Insert(t.dir, d, e)
}

// moveRight moves the last c segments of leaf d to the front of leaf d+1,
// which has room for them, and moves d+1's key back to the first of them.
// It is declined, and reports false, when d+1's last breakpoint would lie
// out of reach of that key.
func (t *Tree) moveRight(d, c int) bool {
	a, b := &t.dir[d], &t.dir[d+1]
	la, lb := &t.leaves[a.leaf], &t.leaves[b.leaf]
	from, n := int(a.n)-c, int(b.n)
	key := t.start(d, la, from)
	by := t.first[d+1] - key
	if n > 0 && by+core.Time(lb.off[n-1]) > math.MaxUint32 {
		return false
	}
	copy(lb.off[c:c+n], lb.off[:n])
	copy(lb.avail[c:c+n], lb.avail[:n])
	for k := c; k < c+n; k++ {
		lb.off[k] += uint32(by)
	}
	for k := range c {
		lb.off[k] = la.off[from+k] - la.off[from]
	}
	copy(lb.avail[:c], la.avail[from:a.n])
	t.first[d+1] = key
	a.n, b.n = int32(from), int32(c+n)
	t.rescan(d)
	t.rescan(d + 1)
	return true
}

// moveLeft moves the first c segments of leaf d+1 to the end of leaf d,
// which has room for them, and moves d+1's key forward to its new first
// start unless it is left empty. It is declined, and reports false, when
// the last of them would lie out of reach of d's key.
func (t *Tree) moveLeft(d, c int) bool {
	a, b := &t.dir[d], &t.dir[d+1]
	la, lb := &t.leaves[a.leaf], &t.leaves[b.leaf]
	by := t.first[d+1] - t.first[d]
	if by+core.Time(lb.off[c-1]) > math.MaxUint32 {
		return false
	}
	for k, off := range lb.off[:c] {
		la.off[int(a.n)+k] = uint32(by) + off
	}
	copy(la.avail[a.n:], lb.avail[:c])
	a.n += int32(c)
	t.rescan(d)
	if b.n -= int32(c); b.n > 0 {
		copy(lb.off[:], lb.off[c:c+int(b.n)])
		copy(lb.avail[:], lb.avail[c:c+int(b.n)])
		t.first[d+1] += lb.rebase(int(b.n))
		t.rescan(d + 1)
	}
	return true
}

// split moves the upper half of leaf d to a new leaf after it, whose key
// moveRight sets.
func (t *Tree) split(d int) {
	r := t.alloc()
	t.link(d+1, 0, entry{leaf: r})
	t.moveRight(d, int(t.dir[d].n)/2)
}

// drop takes leaf d (d > 0) out of the directory and frees it.
func (t *Tree) drop(d int) {
	i := t.dir[d].leaf
	t.leaves[i].avail[0], t.free = t.free, i
	t.first = slices.Delete(t.first, d, d+1)
	t.dir = slices.Delete(t.dir, d, d+1)
}

// absorb merges leaf d into the previous one, or the next one into it, if
// the two fit in half a leaf, so that what a split made cannot be unmade
// by the next release. A merge that would leave a breakpoint out of reach
// of the earlier leaf's key is declined.
func (t *Tree) absorb(d int) {
	for a := d; a >= d-1 && a >= 0; a-- {
		if a+1 < len(t.dir) && t.dir[a].n+t.dir[a+1].n <= leafCap/2 && t.moveLeft(a, int(t.dir[a+1].n)) {
			t.drop(a + 1)
			return
		}
	}
}

// makeRoom is what a mutation does when leaf d has no slot for a new
// breakpoint at at, which lies inside one of its segments: when the leaf
// is too full for it, or when at lies out of reach of the leaf's key, and
// so past all of its breakpoints. It tries, in this order, to
//
//   - lend: move half of a neighbour's free slots' worth of the leaf's
//     segments across, to the next leaf if that one has lendMin free, else
//     to the previous one, unless a breakpoint would fall out of reach;
//   - open a leaf at at, holding the rest of the segment at lies in, when
//     at lies past the leaf's last breakpoint;
//   - split the leaf in halves.
//
// A lend keeps the leaves around a random-order book about four-fifths
// full where splits alone leave them ln 2 full, and the leaf opened at the
// tail keeps a time-ordered build's leaves full. The caller finds its
// window again.
func (t *Tree) makeRoom(d int, at core.Time) {
	if _, ok := t.offset(d, at); ok {
		if d+1 < len(t.dir) {
			if free := leafCap - int(t.dir[d+1].n); free >= lendMin && t.moveRight(d, free/2) {
				return
			}
		}
		if d > 0 {
			if free := leafCap - int(t.dir[d-1].n); free >= lendMin && t.moveLeft(d-1, free/2) {
				return
			}
		}
	}
	e := &t.dir[d]
	l := &t.leaves[e.leaf]
	if at < t.start(d, l, int(e.n)-1) {
		t.split(d)
		return
	}
	avail := l.avail[e.n-1]
	r := t.alloc()
	t.leaves[r].off[0], t.leaves[r].avail[0] = 0, avail
	t.link(d+1, at, entry{leaf: r, n: 1, mn: avail, mx: avail})
	t.size++
}

// shift adds delta to slots [lo, hi) of leaf d and keeps the leaf's min
// and max. mn and mx are the least and greatest capacity over the window
// before the delta, which are those of the slots unless wide says that
// the window goes on into other leaves.
func (t *Tree) shift(d, lo, hi int, delta, mn, mx int32, wide bool) {
	e := &t.dir[d]
	a := t.leaves[e.leaf].avail[:e.n]
	if lo == 0 && hi == len(a) {
		for k := range a {
			a[k] += delta
		}
		e.mn, e.mx = e.mn+delta, e.mx+delta
		return
	}
	if wide {
		mn, mx = slices.Min(a[lo:hi]), slices.Max(a[lo:hi])
	}
	for k := lo; k < hi; k++ {
		a[k] += delta
	}
	// Every value outside [lo, hi) kept its place, and each inside moved by
	// delta towards one extreme: the extreme on that side is a min/max
	// away, the other needs a look only if the window held it.
	if delta < 0 {
		e.mn = min(e.mn, mn+delta)
		if mx == e.mx {
			e.mx = slices.Max(a)
		}
	} else {
		e.mx = max(e.mx, mx+delta)
		if mn == e.mn {
			e.mn = slices.Min(a)
		}
	}
}

// coalesce takes out breakpoint k of leaf d, whose two sides have the same
// capacity, so that the segment before it runs on. Inside a leaf the
// capacity taken out lives on in that segment, so min and max hold. At
// slot 0 the leaf's key moves to its next breakpoint and min and max are
// recomputed, or the leaf is dropped when that was its only one. It
// reports whether leaf d is still there.
func (t *Tree) coalesce(d, k int) bool {
	t.size--
	e := &t.dir[d]
	if e.n == 1 {
		t.drop(d)
		return false
	}
	l := &t.leaves[e.leaf]
	l.remove(int(e.n), k)
	e.n--
	if k == 0 {
		t.first[d] += l.rebase(int(e.n))
		t.rescan(d)
	}
	return true
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
	delta := int32(deltaQ)
	for {
		d0, k0, d1, k1, mn, mx := t.find(start, end)
		if deltaQ < 0 && int(mn) < -deltaQ {
			return fmt.Errorf("%w: need %d on [%v,%v), min available %d",
				profile.ErrInsufficient, -deltaQ, start, end, mn)
		}
		if deltaQ > 0 && int(mx)+deltaQ > t.m {
			return fmt.Errorf("%w: releasing %d would exceed m=%d",
				profile.ErrOverRelease, deltaQ, t.m)
		}
		e0, e1 := &t.dir[d0], &t.dir[d1]
		l0, l1 := &t.leaves[e0.leaf], &t.leaves[e1.leaf]
		// A uniform delta over [start, end) leaves interior neighbours
		// different, so only its two ends can become breakpoints or stop
		// being ones.
		cutStart, cutEnd := t.start(d0, l0, k0) < start, t.slotEnd(d1, e1, l1, k1) > end
		// Each new breakpoint needs a slot within reach of its leaf's key.
		// makeRoom makes room for one, and the window is found again: first
		// for the end out of reach, then for the start out of reach or
		// without a slot, then for the end without one. So a window that
		// starts past a full leaf's last breakpoint opens the next leaf at
		// its start and ends in it, and one that starts in the last free slot
		// opens it at its end: a time-ordered build leaves its leaves full.
		offStart, startFits := t.offset(d0, start)
		offEnd, endFits := t.offset(d1, end)
		room, at := -1, end
		switch {
		case cutEnd && !endFits:
			room = d1
		case cutStart && (!startFits || e0.n == leafCap):
			room, at = d0, start
		case cutEnd && (e1.n == leafCap || d0 == d1 && cutStart && e1.n == leafCap-1):
			room = d1
		}
		if room >= 0 {
			t.fin.d, t.fin.k = 0, 0 // leaf 0's slot 0 stays live
			t.makeRoom(room, at)
			continue
		}
		// The end first, while k1 still names the segment before it; then
		// the start.
		if cutEnd {
			l1.insert(int(e1.n), k1+1, offEnd, l1.avail[k1])
			e1.n++
			t.size++
		}
		if cutStart {
			l0.insert(int(e0.n), k0+1, offStart, l0.avail[k0])
			e0.n++
			t.size++
			if k0++; d0 == d1 {
				k1++
			}
		}
		for d := d0; d <= d1; d++ {
			lo, hi := 0, int(t.dir[d].n)
			if d == d0 {
				lo = k0
			}
			if d == d1 {
				hi = k1 + 1
			}
			t.shift(d, lo, hi, delta, mn, mx, d0 < d1)
		}
		// The delta may have made the old breakpoint at either end redundant:
		// the end's goes first, so that the start's position still holds.
		// shrunk collects the leaves that came out with fewer segments, the
		// end's first; a leaf that also took a new breakpoint did not.
		shrunk := [2]int{-1, -1}
		if end != core.Infinity && !cutEnd {
			d, k := d1, k1+1
			if k == int(e1.n) {
				d, k = d1+1, 0
			}
			if t.leaves[t.dir[d].leaf].avail[k] == l1.avail[k1] && t.coalesce(d, k) && (d != d0 || !cutStart) {
				shrunk[0] = d
			}
		}
		t.fin.d, t.fin.k = int32(d0), int32(k0) // the segment holding start
		if start > 0 && !cutStart {
			d, k := d0, k0-1
			if k0 == 0 {
				d = d0 - 1
				k = int(t.dir[d].n) - 1
			}
			if t.leaves[t.dir[d].leaf].avail[k] == l0.avail[k0] {
				t.fin.d, t.fin.k = int32(d), int32(k)
				switch {
				case !t.coalesce(d0, k0): // leaf d0 is gone, and later ones moved down
					if shrunk[0] == d0 {
						shrunk[0] = -1
					} else if shrunk[0] > d0 {
						shrunk[0]--
					}
				case shrunk[0] != d0 && (d0 != d1 || !cutEnd):
					shrunk[1] = d0
				}
			}
		}
		for _, d := range shrunk {
			if d >= 0 && t.dir[d].n <= leafCap/2 {
				t.fin.d, t.fin.k = 0, 0 // absorb may fold leaf d into d-1
				t.absorb(d)
			}
		}
		return nil
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
		return t.start(d, l, k+1), true
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
			if !visit(t.start(d, l, k), t.start(d, l, k+1), int(l.avail[k])) {
				return
			}
		}
		if !visit(t.start(d, l, k), t.leafEnd(d), int(l.avail[k])) {
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
	for d, e := range t.dir {
		for _, off := range t.leaves[e.leaf].off[:e.n] {
			out = append(out, t.first[d]+core.Time(off))
		}
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
