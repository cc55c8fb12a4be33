// Package restree implements the "tree" capacity-index backend: a balanced
// (AVL) augmented tree over the breakpoints of the available-capacity step
// function, after the reservation tree of de Assunção et al.
//
// Nodes live in one pointer-free arena ([]node) and name each other by int32
// index; index 0 is the "no child" sentinel and freed nodes are reused
// through a free list. A node is one maximal constant segment and stores only
// its start, its capacity, and the minimum and maximum capacity of its
// subtree: the segments tile [0, +inf), so a segment ends where its in-order
// successor starts and a subtree spans the keys between two ancestors, and
// both fall out of the descent instead of being stored. That keeps a node at
// 32 bytes, hides the arena from the garbage collector's mark phase, makes
// Clone a single copy, and leaves a steady-state Commit/Release cycle nothing
// to allocate.
//
// The aggregates buy the operations that dominate scheduling with
// reservations:
//
//   - admission checks (MinAvailable over a window) read the aggregate of
//     every subtree wholly inside the window, one O(log n) descent;
//   - earliest-fit queries (FindSlot / EarliestFit) sweep the segments in
//     time order once, skipping every subtree that holds no blocking
//     segment, O(b + log n) for b blocking segments passed;
//   - mutations (Commit/Release) settle each window boundary in one
//     descent — split the straddling segment, or drop a breakpoint whose
//     two sides are about to become equal — then add the delta to the
//     breakpoints inside the window.
//
// The tree keeps exactly the canonical form of profile.Timeline: strictly
// increasing breakpoints and no equal-valued neighbours. Every observable
// — capacities, slots, breakpoints, segment counts, free areas and error
// conditions — therefore agrees bit-for-bit with the array backend, which
// the differential tests and the fuzz harness in this package enforce.
//
// The package registers itself with the profile backend registry under the
// name "tree"; select it with -backend=tree on the CLIs or via
// profile.NewIndex("tree", m).
package restree

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/profile"
)

func init() {
	profile.RegisterBackend("tree", func(m int) profile.CapacityIndex { return New(m) })
}

// node is one segment of the step function: it starts at start, ends where
// the next segment in time order starts (never for the last one), and has
// avail processors free. left and right index the arena; 0 is no child. On
// the free list left links to the next free node.
type node struct {
	start       core.Time
	avail       int32
	mn, mx      int32 // min/max avail over the subtree
	left, right int32
	height      int32
}

// Tree is the balanced capacity index. The zero value is not usable;
// construct with New or FromReservations.
type Tree struct {
	m     int
	nodes []node // nodes[0] is the empty subtree: height 0, neutral aggregates
	root  int32
	free  int32 // head of the free list, 0 when empty
	size  int   // live segments
}

// Tree implements the backend seam.
var _ profile.CapacityIndex = (*Tree)(nil)

// New returns a tree with constant capacity m on [0, +inf).
func New(m int) *Tree {
	if m < 0 || m >= math.MaxInt32 {
		panic("restree: capacity out of range")
	}
	t := &Tree{m: m, size: 1, nodes: make([]node, 1, 2)}
	t.nodes[0] = node{mn: math.MaxInt32, mx: math.MinInt32}
	t.root = t.alloc(0, int32(m))
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

// alloc returns a leaf for a segment, reusing a freed node when there is
// one. Growing the arena moves it: no *node may be held across alloc.
func (t *Tree) alloc(start core.Time, avail int32) int32 {
	i := t.free
	if i != 0 {
		t.free = t.nodes[i].left
	} else {
		i = int32(len(t.nodes))
		t.nodes = append(t.nodes, node{})
	}
	t.nodes[i] = node{start: start, avail: avail, mn: avail, mx: avail, height: 1}
	return i
}

// release puts node i on the free list.
func (t *Tree) release(i int32) {
	t.nodes[i] = node{left: t.free}
	t.free = i
}

// update recomputes i's height and aggregates from its children.
func (t *Tree) update(i int32) {
	n := &t.nodes[i]
	l, r := &t.nodes[n.left], &t.nodes[n.right]
	n.height = 1 + max(l.height, r.height)
	n.mn = min(n.avail, l.mn, r.mn)
	n.mx = max(n.avail, l.mx, r.mx)
}

func (t *Tree) rotateLeft(i int32) int32 {
	r := t.nodes[i].right
	t.nodes[i].right = t.nodes[r].left
	t.nodes[r].left = i
	t.update(i)
	t.update(r)
	return r
}

func (t *Tree) rotateRight(i int32) int32 {
	l := t.nodes[i].left
	t.nodes[i].left = t.nodes[l].right
	t.nodes[l].right = i
	t.update(i)
	t.update(l)
	return l
}

// rebalance restores the AVL invariant and the aggregates at i after a
// child changed, and returns the subtree's new root.
func (t *Tree) rebalance(i int32) int32 {
	t.update(i)
	ns := t.nodes
	l, r := ns[i].left, ns[i].right
	switch bf := ns[l].height - ns[r].height; {
	case bf > 1:
		if ns[ns[l].left].height < ns[ns[l].right].height {
			ns[i].left = t.rotateLeft(l)
		}
		return t.rotateRight(i)
	case bf < -1:
		if ns[ns[r].right].height < ns[ns[r].left].height {
			ns[i].right = t.rotateRight(r)
		}
		return t.rotateLeft(i)
	}
	return i
}

// first returns the earliest node of subtree i (i != 0), last the latest.
func (t *Tree) first(i int32) int32 {
	for l := t.nodes[i].left; l != 0; l = t.nodes[i].left {
		i = l
	}
	return i
}

func (t *Tree) last(i int32) int32 {
	for r := t.nodes[i].right; r != 0; r = t.nodes[i].right {
		i = r
	}
	return i
}

// removeFirst unlinks and frees the earliest node of subtree i.
func (t *Tree) removeFirst(i int32) int32 {
	if t.nodes[i].left == 0 {
		r := t.nodes[i].right
		t.release(i)
		return r
	}
	t.nodes[i].left = t.removeFirst(t.nodes[i].left)
	return t.rebalance(i)
}

// M returns the machine size the tree was created with.
func (t *Tree) M() int { return t.m }

// NumSegments returns the number of constant segments.
func (t *Tree) NumSegments() int { return t.size }

// Clone returns an independent deep copy: the arena, cut to its length.
func (t *Tree) Clone() *Tree {
	c := *t
	c.nodes = make([]node, len(t.nodes))
	copy(c.nodes, t.nodes)
	return &c
}

// CloneIndex implements profile.CapacityIndex.
func (t *Tree) CloneIndex() profile.CapacityIndex { return t.Clone() }

// CapacityAt is the paper-facing name for AvailableAt.
func (t *Tree) CapacityAt(at core.Time) int { return t.AvailableAt(at) }

// AvailableAt implements profile.CapacityIndex: the capacity of the segment
// with the greatest start <= at.
func (t *Tree) AvailableAt(at core.Time) int {
	at = max(at, 0)
	var avail int32
	for i := t.root; i != 0; {
		if n := &t.nodes[i]; n.start <= at {
			avail, i = n.avail, n.right
		} else {
			i = n.left
		}
	}
	return int(avail)
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
// the window. One descent finds the topmost breakpoint inside (a, b); below
// it, whatever hangs off the path to a on the right, or off the path to b
// on the left, lies inside the window and is read from its aggregate.
func (t *Tree) extent(a, b core.Time) (mn, mx int32) {
	ns := t.nodes
	top, at := t.root, int32(0) // at: the segment containing a, so far
	for top != 0 {
		if n := &ns[top]; n.start <= a {
			at, top = top, n.right
		} else if n.start >= b {
			top = n.left
		} else {
			break
		}
	}
	mn, mx = ns[0].mn, ns[0].mx
	if top != 0 {
		mn, mx = ns[top].avail, ns[top].avail
	}
	for i := ns[top].left; i != 0; {
		if n := &ns[i]; n.start > a {
			mn, mx = min(mn, n.avail, ns[n.right].mn), max(mx, n.avail, ns[n.right].mx)
			i = n.left
		} else {
			at, i = i, n.right
		}
	}
	for i := ns[top].right; i != 0; {
		if n := &ns[i]; n.start < b {
			mn, mx = min(mn, n.avail, ns[n.left].mn), max(mx, n.avail, ns[n.left].mx)
			i = n.right
		} else {
			i = n.left
		}
	}
	return min(mn, ns[at].avail), max(mx, ns[at].avail)
}

// MinIn is the paper-facing name for MinAvailable.
func (t *Tree) MinIn(a, b core.Time) int { return t.MinAvailable(a, b) }

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

// fit is the state of one earliest-fit sweep.
type fit struct {
	nodes      []node
	q          int32
	ready, dur core.Time
	s          core.Time // candidate start, open while blocked
	blocked    bool      // the last segment swept has avail < q: the next free one sets s
}

// sweep passes over subtree i in time order, carrying the candidate start,
// and reports whether f.s is decided: a blocking segment starts at or past
// f.s+dur, so the window fits in front of it. Of the segments before ready
// only those on the path to it are visited, and harmlessly: the segment
// containing ready comes after them and overwrites what they left. A
// subtree without a blocking segment is skipped whole, unless the candidate
// is still open and its first segment has to set it.
func (f *fit) sweep(i int32) bool {
	for i != 0 {
		n := &f.nodes[i]
		if n.mn >= f.q && !f.blocked {
			return false
		}
		if n.start > f.ready && f.sweep(n.left) {
			return true
		}
		if n.avail < f.q {
			if !f.blocked && n.start >= windowEnd(f.s, f.dur) {
				return true
			}
			f.blocked = true
		} else if f.blocked {
			f.s, f.blocked = max(n.start, f.ready), false
		}
		i = n.right
	}
	return false
}

// EarliestFit returns the earliest time s >= notBefore such that q
// processors are available during all of [s, s+dur): the de Assunção-style
// alternative-offer query. The boolean is false only when the final
// (unbounded) capacity is below q and no finite window fits.
//
// A window can only start at notBefore or where a blocking segment
// (capacity < q) ends, so the search is one in-order sweep carrying the
// candidate start s: a blocking segment starting before s+dur moves s to
// the next free segment's start, one starting at or past s+dur ends the
// search, and subtrees whose minimum capacity is >= q are never entered.
// Passing b blocking segments costs O(b + log n) however many free ones
// lie between them.
func (t *Tree) EarliestFit(q int, dur, notBefore core.Time) (core.Time, bool) {
	if dur <= 0 {
		panic(profile.ErrBadWindow)
	}
	// avail lies in [0, m], so clamping q there changes no comparison.
	f := fit{nodes: t.nodes, q: int32(min(max(q, 0), t.m+1)), ready: max(notBefore, 0), dur: dur}
	f.s = f.ready
	if !f.sweep(t.root) && f.blocked {
		return 0, false
	}
	return f.s, true
}

// FindSlot implements profile.CapacityIndex in terms of EarliestFit.
func (t *Tree) FindSlot(ready core.Time, q int, dur core.Time) (core.Time, bool) {
	return t.EarliestFit(q, dur, ready)
}

// settle makes the breakpoint at key (0 < key < Infinity) in subtree i
// ready for a delta that is about to change the capacity just before key
// by dl and from key on by dr, dl != dr: a missing breakpoint is inserted,
// splitting its segment, and one whose two sides are about to become equal
// is removed, so its predecessor absorbs the segment. below is the capacity
// of the nearest earlier segment passed on the way down. It returns the
// subtree's new root; child links are stored after the call, by index,
// because alloc may have moved the arena.
func (t *Tree) settle(i int32, key core.Time, dl, dr, below int32) int32 {
	if i == 0 {
		t.size++
		return t.alloc(key, below)
	}
	switch n := &t.nodes[i]; {
	case key < n.start:
		l := t.settle(n.left, key, dl, dr, below)
		t.nodes[i].left = l
	case key > n.start:
		r := t.settle(n.right, key, dl, dr, n.avail)
		t.nodes[i].right = r
	default:
		if n.left != 0 {
			below = t.nodes[t.last(n.left)].avail
		}
		if below+dl != n.avail+dr {
			return i
		}
		t.size--
		if n.left == 0 || n.right == 0 {
			only := n.left + n.right
			t.release(i)
			return only
		}
		next := &t.nodes[t.first(n.right)]
		n.start, n.avail = next.start, next.avail
		n.right = t.removeFirst(n.right)
	}
	return t.rebalance(i)
}

// addRange adds delta to every segment of subtree i starting in [lo, hi).
func (t *Tree) addRange(i int32, lo, hi core.Time, delta int32) {
	if i == 0 {
		return
	}
	n := &t.nodes[i]
	if n.start > lo {
		t.addRange(n.left, lo, hi, delta)
	}
	if n.start < hi {
		if n.start >= lo {
			n.avail += delta
		}
		t.addRange(n.right, lo, hi, delta)
	}
	t.update(i)
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
	mn, mx := t.extent(start, end)
	if deltaQ < 0 && int(mn) < -deltaQ {
		return fmt.Errorf("%w: need %d on [%v,%v), min available %d",
			profile.ErrInsufficient, -deltaQ, start, end, mn)
	}
	if deltaQ > 0 && int(mx)+deltaQ > t.m {
		return fmt.Errorf("%w: releasing %d would exceed m=%d",
			profile.ErrOverRelease, deltaQ, t.m)
	}
	// A uniform delta over [start, end) leaves interior neighbours
	// different, so only the two boundaries can appear or merge. The end
	// goes first: its left side is still the segment the delta will reach,
	// whatever happens to the breakpoint at start afterwards.
	delta := int32(deltaQ)
	if end != core.Infinity {
		t.root = t.settle(t.root, end, delta, 0, 0)
	}
	if start > 0 {
		t.root = t.settle(t.root, start, 0, delta, 0)
	}
	t.addRange(t.root, start, end, delta)
	return nil
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
	var best core.Time
	found := false
	for i := t.root; i != 0; {
		if n := &t.nodes[i]; n.start > at {
			best, found = n.start, true
			i = n.left
		} else {
			i = n.right
		}
	}
	return best, found
}

// walk visits, in time order, the segments of subtree i that end after
// from, until the callback returns false. hi is where the segment after
// the subtree starts.
func (t *Tree) walk(i int32, from, hi core.Time, visit func(start, end core.Time, avail int) bool) bool {
	if i == 0 {
		return true
	}
	n := &t.nodes[i]
	end := hi
	if n.right != 0 {
		end = t.nodes[t.first(n.right)].start
	}
	return (n.start <= from || t.walk(n.left, from, n.start, visit)) &&
		(end <= from || visit(n.start, end, int(n.avail))) &&
		t.walk(n.right, from, hi, visit)
}

// Breakpoints returns a copy of all breakpoint times.
func (t *Tree) Breakpoints() []core.Time {
	out := make([]core.Time, 0, t.size)
	t.walk(t.root, 0, core.Infinity, func(start, _ core.Time, _ int) bool {
		out = append(out, start)
		return true
	})
	return out
}

// FreeArea returns the integral of available capacity over [t0, t1).
// t1 must be finite.
func (t *Tree) FreeArea(t0, t1 core.Time) int64 {
	if t0 < 0 || t1 == core.Infinity || t0 > t1 {
		panic(profile.ErrBadWindow)
	}
	var area int64
	t.walk(t.root, t0, core.Infinity, func(start, end core.Time, avail int) bool {
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
	t.walk(t.root, 0, core.Infinity, func(start, end core.Time, avail int) bool {
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
	t.walk(t.root, 0, core.Infinity, func(start, end core.Time, avail int) bool {
		if start > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "[%v,%v)=%d", start, end, avail)
		return true
	})
	return b.String()
}
