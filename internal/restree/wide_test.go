package restree

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/rng"
)

// events counts what mutations did where a leaf runs out of room or of
// reach, or where a window meets a leaf boundary. far counts those that
// opened a leaf at a breakpoint beyond the reach of its leaf's key;
// declined those after which a leaf that lost segments sits beside a
// neighbour it fits with in half a leaf but cannot reach, the merge absorb
// declines. lendRight and lendLeft count those that moved segments of a
// leaf to the next or the previous one that was there before; fullLeaf
// those that needed a new breakpoint in a full leaf holding their whole
// window. spans3 counts windows over three leaves or more; endDrop those
// whose end, the key of a one-segment leaf, stopped being a breakpoint and
// took the leaf with it; startKey those whose start, the key of a leaf of
// more segments with no room to make there, stopped being one and moved
// the key forward; twoFull those whose start and end each needed a slot in
// a different full leaf.
type events struct {
	far, declined, lendRight, lendLeft, fullLeaf int
	spans3, endDrop, startKey, twoFull           int
}

// mutate runs do, a commit or release of [s, end) on tr, and counts what it
// did. A cut at a far breakpoint is the first thing a mutation does, so
// whether one happens is read off the tree before; the leaf it opens must
// be there after.
func (ev *events) mutate(t *testing.T, tr *Tree, s, end core.Time, do func() error) error {
	t.Helper()
	opens := core.Time(-1)
	if farCut(tr, end) {
		opens = end
	} else if farCut(tr, s) {
		opens = s
	}
	// Per arena index: segments in use (0 for a leaf not in use) and key.
	before := make([]int32, len(tr.leaves))
	key := make([]core.Time, len(tr.leaves))
	for d, e := range tr.dir {
		before[e.leaf], key[e.leaf] = e.n, tr.first[d]
	}
	// The leaves of the start, of the window's last segment and of the end.
	d0, d1, dEnd := lastLE(tr.first, s), len(tr.dir)-1, len(tr.dir)-1
	cutStart, cutEnd := !isBreakpoint(tr, s), false
	if end != core.Infinity {
		d1, dEnd, cutEnd = lastLE(tr.first, end-1), lastLE(tr.first, end), !isBreakpoint(tr, end)
	}
	full := tr.dir[d0].n == leafCap && d1 == d0 && (cutStart || cutEnd)
	spans3 := d1-d0 >= 2
	twoFull := cutStart && cutEnd && d0 != dEnd && tr.dir[d0].n == leafCap && tr.dir[dEnd].n == leafCap
	endLeaf, startLeaf := int32(-1), int32(-1)
	if !cutEnd && end != core.Infinity && tr.first[dEnd] == end && tr.dir[dEnd].n == 1 {
		endLeaf = tr.dir[dEnd].leaf
	}
	if !cutStart && d0 > 0 && tr.first[d0] == s && tr.dir[d0].n > 1 && (!cutEnd || dEnd != d0 || tr.dir[d0].n < leafCap) {
		startLeaf = tr.dir[d0].leaf
	}
	if err := do(); err != nil {
		return err
	}
	if opens >= 0 {
		if d := lastLE(tr.first, opens); tr.first[d] != opens {
			t.Fatalf("[%v,%v): no leaf opened at the far breakpoint %v: %v", s, end, opens, tr.first)
		}
		ev.far++
	}
	if declined(tr, before) {
		ev.declined++
	}
	if full {
		ev.fullLeaf++
	}
	if spans3 {
		ev.spans3++
	}
	if twoFull {
		ev.twoFull++
	}
	// Directory position by arena index after, -1 for a leaf not in use.
	at := make([]int, len(tr.leaves))
	for i := range at {
		at[i] = -1
	}
	for d, e := range tr.dir {
		at[e.leaf] = d
	}
	if endLeaf >= 0 && at[endLeaf] < 0 && !isBreakpoint(tr, end) {
		ev.endDrop++
	}
	if startLeaf >= 0 && at[startLeaf] >= 0 && tr.first[at[startLeaf]] > s && !isBreakpoint(tr, s) {
		ev.startKey++
	}
	// Only a lend moves a key back, and only a lend to the previous leaf
	// moves one forward while that leaf gains two segments or more.
	var right, left bool
	live := func(i int32) bool { return int(i) < len(before) && before[i] > 0 }
	for d := 1; d < len(tr.dir); d++ {
		i, p := tr.dir[d].leaf, tr.dir[d-1].leaf
		right = right || live(i) && tr.first[d] < key[i]
		left = left || live(i) && tr.first[d] > key[i] && live(p) && tr.dir[d-1].n >= before[p]+2
	}
	if right {
		ev.lendRight++
	}
	if left {
		ev.lendLeft++
	}
	return nil
}

// isBreakpoint reports whether a segment starts at at.
func isBreakpoint(tr *Tree, at core.Time) bool {
	d := lastLE(tr.first, at)
	e := tr.dir[d]
	l := &tr.leaves[e.leaf]
	return tr.first[d]+core.Time(l.off[lastLE(l.off[:e.n], at-tr.first[d])]) == at
}

// farCut reports whether making at a breakpoint opens a leaf: at lies more
// than 2³²−1 ticks past the key of the leaf it falls in, which is beyond
// every breakpoint there.
func farCut(tr *Tree, at core.Time) bool {
	return at != core.Infinity && at-tr.first[lastLE(tr.first, at)] > math.MaxUint32
}

// declined reports whether a leaf that holds fewer segments than before
// (segments in use by arena index) has a neighbour it would fit with in
// half a leaf but whose last breakpoint lies beyond the earlier one's reach.
func declined(tr *Tree, before []int32) bool {
	for d, e := range tr.dir {
		if int(e.leaf) >= len(before) || e.n >= before[e.leaf] {
			continue
		}
		for a := max(d-1, 0); a <= d && a+1 < len(tr.dir); a++ {
			x, y := tr.dir[a], tr.dir[a+1]
			last := tr.first[a+1] + core.Time(tr.leaves[y.leaf].off[y.n-1])
			if x.n+y.n <= leafCap/2 && last-tr.first[a] > math.MaxUint32 {
				return true
			}
		}
	}
	return false
}

// TestDifferentialWideTimes drives the tree and the array timeline with
// windows whose breakpoints lie 2²⁷ ticks apart, close ones mixed in, some
// ending just short of core.Infinity or never, and releases them in random
// order:
// a leaf spans up to 2³³ ticks, more than its offsets reach. After every
// step the invariants hold and both render the same segments, and the run
// must open leaves at far breakpoints and see absorbs declined.
func TestDifferentialWideTimes(t *testing.T) {
	const (
		m     = 8
		seed  = 29
		steps = 4000
		gap   = core.Time(1) << 27
	)
	tr, tl := New(m), profile.New(m)
	r := rng.New(seed)
	var ev events
	var live []window
	step := func(w window, release bool) {
		t.Helper()
		do, ref := tr.Commit, tl.Commit
		if release {
			do, ref = tr.Release, tl.Release
		}
		if err := ev.mutate(t, tr, w.s, windowEnd(w.s, w.d), func() error { return do(w.s, w.d, w.q) }); err != nil {
			t.Fatalf("seed %d: %+v (release=%v): %v", seed, w, release, err)
		}
		if err := ref(w.s, w.d, w.q); err != nil {
			t.Fatalf("seed %d: array %+v (release=%v): %v", seed, w, release, err)
		}
		checkInvariants(t, tr)
		if g, w := tr.String(), tl.String(); g != w {
			t.Fatalf("seed %d: segment forms diverge:\ntree:  %v\narray: %v", seed, g, w)
		}
	}
	release := func() {
		i := r.Intn(len(live))
		step(live[i], true)
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	for i := 0; i < steps; i++ {
		if len(live) > 0 && r.Intn(5) < 2 {
			release()
			continue
		}
		w := window{s: core.Time(r.Intn(1024)) * gap, d: core.Time(r.Intn(8)+1) * gap, q: r.Intn(3) + 1}
		switch r.Intn(8) {
		case 0, 1: // close to a breakpoint 2²⁷ ticks apart, or short
			w.s += core.Time(r.Intn(64))
			w.d = core.Time(r.Intn(1000) + 1)
		case 2: // ends just short of the end of time
			w.d = core.Infinity - w.s - core.Time(r.Intn(1000)+1)
		case 3: // starts there
			w.s = core.Infinity - core.Time(r.Intn(1024)+2)*gap/2
			w.d = min(w.d, core.Infinity-1-w.s)
		case 4: // never ends
			w.d = core.Infinity
		}
		if tl.CanPlace(w.s, w.d, w.q) {
			step(w, false)
			live = append(live, w)
		}
	}
	for len(live) > 0 {
		release()
	}
	if tr.NumSegments() != 1 || len(tr.dir) != 1 {
		t.Fatalf("seed %d: released everything, left with %v in %d leaves", seed, tr, len(tr.dir))
	}
	t.Logf("seed %d: %+v", seed, ev)
	if ev.far == 0 || ev.declined == 0 {
		t.Fatalf("seed %d: far opens %d, declined merges %d; want both", seed, ev.far, ev.declined)
	}
}

// TestWideSeeds pins what the committed FuzzTreeWideTimes seeds are there
// for: far-breakpoint-opens-leaf opens a leaf at a far breakpoint, and
// absorb-declined-wide has a merge declined.
func TestWideSeeds(t *testing.T) {
	if _, ev := replayOps(t, seedOps(t, "FuzzTreeWideTimes", "far-breakpoint-opens-leaf"), wideShift); ev.far == 0 {
		t.Errorf("far-breakpoint-opens-leaf: %+v", ev)
	}
	if _, ev := replayOps(t, seedOps(t, "FuzzTreeWideTimes", "absorb-declined-wide"), wideShift); ev.declined == 0 {
		t.Errorf("absorb-declined-wide: %+v", ev)
	}
}
