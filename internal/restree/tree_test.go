package restree

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/rng"
)

// checkInvariants verifies the structural invariants of the leaf layout:
// every leaf the directory reaches holds 1..leafCap segments and is reached
// once, first[0] is 0, a leaf's offsets start at 0 and strictly increase
// and its last breakpoint (its key plus the last offset) lies before the
// next key, the stored min/max equal the recomputed ones, breakpoints
// strictly increase and no two neighbours are equal — across leaf
// boundaries too (the canonical form) — capacities lie in [0, m], size
// equals the segments reachable, and the free list holds exactly the arena
// slots the directory does not reach.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	if len(tr.first) != len(tr.dir) || len(tr.dir) == 0 || tr.first[0] != 0 {
		t.Fatalf("directory of %d keys and %d entries, first key %v", len(tr.first), len(tr.dir), tr.first)
	}
	live := make([]bool, len(tr.leaves))
	segs := 0
	var prevStart core.Time
	var prevAvail int32
	for d, e := range tr.dir {
		if e.leaf < 0 || int(e.leaf) >= len(tr.leaves) || live[e.leaf] {
			t.Fatalf("leaf %d (directory %d) out of the arena or reached twice", e.leaf, d)
		}
		live[e.leaf] = true
		if e.n < 1 || e.n > leafCap {
			t.Fatalf("leaf at %v holds %d segments", tr.first[d], e.n)
		}
		l := &tr.leaves[e.leaf]
		if l.off[0] != 0 {
			t.Fatalf("leaf at %v starts %d ticks after its key", tr.first[d], l.off[0])
		}
		for k := 1; k < int(e.n); k++ {
			if l.off[k] <= l.off[k-1] {
				t.Fatalf("offsets out of order in the leaf at %v, slot %d: %v", tr.first[d], k, l.off[:e.n])
			}
		}
		if d+1 < len(tr.dir) && tr.first[d]+core.Time(l.off[e.n-1]) >= tr.first[d+1] {
			t.Fatalf("leaf at %v reaches %v, past the next key %v", tr.first[d], tr.first[d]+core.Time(l.off[e.n-1]), tr.first[d+1])
		}
		mn, mx := int32(math.MaxInt32), int32(math.MinInt32)
		for k := 0; k < int(e.n); k++ {
			start, avail := tr.first[d]+core.Time(l.off[k]), l.avail[k]
			if avail < 0 || int(avail) > tr.m {
				t.Fatalf("segment at %v: capacity %d outside [0,%d]", start, avail, tr.m)
			}
			if segs > 0 && prevStart >= start {
				t.Fatalf("breakpoints out of order at %v (leaf %d slot %d): %v", start, d, k, tr)
			}
			if segs > 0 && prevAvail == avail {
				t.Fatalf("uncoalesced neighbours at %v (leaf %d slot %d): %v", start, d, k, tr)
			}
			prevStart, prevAvail = start, avail
			mn, mx = min(mn, avail), max(mx, avail)
			segs++
		}
		if e.mn != mn || e.mx != mx {
			t.Fatalf("stale aggregates on the leaf at %v: mn=%d/%d mx=%d/%d", tr.first[d], e.mn, mn, e.mx, mx)
		}
	}
	if segs != tr.size {
		t.Fatalf("size=%d but %d reachable segments", tr.size, segs)
	}
	if d, k := int(tr.fin.d), int(tr.fin.k); d < 0 || d >= len(tr.dir) || k < 0 || k >= int(tr.dir[d].n) {
		t.Fatalf("finger at leaf %d slot %d names no live segment (%d leaves)", d, k, len(tr.dir))
	}
	free := 0
	for i := tr.free; i != -1; i = tr.leaves[i].avail[0] {
		if i < 0 || int(i) >= len(tr.leaves) || live[i] {
			t.Fatalf("free list reaches live or foreign leaf %d", i)
		}
		live[i] = true // also catches a cycle
		free++
	}
	if len(tr.dir)+free != len(tr.leaves) {
		t.Fatalf("arena of %d holds %d live + %d free leaves", len(tr.leaves), len(tr.dir), free)
	}
}

func TestNewTree(t *testing.T) {
	tr := New(16)
	checkInvariants(t, tr)
	if tr.AvailableAt(0) != 16 || tr.AvailableAt(1<<40) != 16 {
		t.Fatal("constant tree wrong")
	}
	if tr.M() != 16 || tr.NumSegments() != 1 {
		t.Fatal("metadata wrong")
	}
	if _, ok := tr.NextBreakpoint(0); ok {
		t.Fatal("constant tree has no breakpoint after 0")
	}
}

func TestCommitReleaseRoundTrip(t *testing.T) {
	tr := New(10)
	if err := tr.Commit(5, 10, 4); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
	if tr.AvailableAt(4) != 10 || tr.AvailableAt(5) != 6 || tr.AvailableAt(14) != 6 || tr.AvailableAt(15) != 10 {
		t.Fatalf("after commit: %v", tr)
	}
	if tr.NumSegments() != 3 {
		t.Fatalf("want 3 segments, got %v", tr)
	}
	if err := tr.Release(5, 10, 4); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
	if tr.NumSegments() != 1 || tr.AvailableAt(7) != 10 {
		t.Fatalf("release did not restore: %v", tr)
	}
}

func TestCommitInsufficientLeavesTreeUnchanged(t *testing.T) {
	tr := New(4)
	if err := tr.Commit(0, 10, 3); err != nil {
		t.Fatal(err)
	}
	before := tr.String()
	if err := tr.Commit(5, 10, 2); !errors.Is(err, profile.ErrInsufficient) {
		t.Fatalf("got %v, want ErrInsufficient", err)
	}
	if tr.String() != before {
		t.Fatalf("failed commit mutated tree: %v", tr)
	}
	checkInvariants(t, tr)
}

func TestOverRelease(t *testing.T) {
	tr := New(4)
	if err := tr.Release(0, 10, 1); !errors.Is(err, profile.ErrOverRelease) {
		t.Fatalf("got %v, want ErrOverRelease", err)
	}
	checkInvariants(t, tr)
}

func TestInfiniteCommit(t *testing.T) {
	tr := New(8)
	if err := tr.Commit(100, core.Infinity, 3); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
	if tr.AvailableAt(99) != 8 || tr.AvailableAt(1<<50) != 5 {
		t.Fatalf("infinite commit wrong: %v", tr)
	}
	if got, ok := tr.FindSlot(0, 6, 10); !ok || got != 0 {
		// [0,100) has 8 free, so a width-6 job fits immediately.
		t.Fatalf("FindSlot(0,6,10) = %v,%v want 0,true", got, ok)
	}
	if _, ok := tr.FindSlot(95, 6, 10); ok {
		// Past t=95 every window touches the infinite 5-capacity tail.
		t.Fatal("width 6 can never fit from t=95")
	}
}

func TestEarliestFitSkipsBlockedSegments(t *testing.T) {
	tr := New(8)
	// Reservations leaving capacity 2 on [10,20) and [40,50).
	for _, w := range []core.Time{10, 40} {
		if err := tr.Commit(w, 10, 6); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		q         int
		dur, from core.Time
		want      core.Time
	}{
		{2, 5, 0, 0},    // fits immediately at low width
		{3, 12, 5, 20},  // straddles the first reservation → the [20,40) gap
		{8, 5, 6, 20},   // full machine: earliest window clear of reservation 1
		{8, 25, 0, 50},  // long full-machine job must clear both
		{3, 25, 0, 50},  // [20,40) gap too short for dur=25, must clear both
		{3, 10, 35, 50}, // ready too deep in the gap to finish by 40
		{6, 1, 0, 0},    // short job before the first reservation
	}
	for _, c := range cases {
		got, ok := tr.FindSlot(c.from, c.q, c.dur)
		if !ok || got != c.want {
			t.Errorf("FindSlot(q=%d,dur=%v,from=%v) = %v,%v want %v", c.q, c.dur, c.from, got, ok, c.want)
		}
	}
	if _, ok := tr.FindSlot(0, 9, 1); ok {
		t.Error("width 9 cannot ever fit on m=8")
	}
}

// TestOverflowingWindowRejected pins the overflow guard: a finite window
// whose end wraps past the Infinity sentinel is refused with ErrBadWindow
// before any mutation, identically on both backends.
func TestOverflowingWindowRejected(t *testing.T) {
	tr := New(8)
	tl := profile.New(8)
	for _, op := range []struct {
		name string
		f    func() (error, error)
	}{
		{"commit", func() (error, error) {
			return tr.Commit(core.Infinity-2, 5, 1), tl.Commit(core.Infinity-2, 5, 1)
		}},
		{"release", func() (error, error) {
			return tr.Release(core.Infinity-2, 5, 1), tl.Release(core.Infinity-2, 5, 1)
		}},
	} {
		errT, errA := op.f()
		if !errors.Is(errT, profile.ErrBadWindow) || !errors.Is(errA, profile.ErrBadWindow) {
			t.Fatalf("%s near Infinity: tree %v, array %v; want ErrBadWindow from both", op.name, errT, errA)
		}
	}
	if tr.NumSegments() != 1 || tl.NumSegments() != 1 {
		t.Fatalf("rejected windows must not mutate: tree %v, array %v", tr, tl)
	}
	checkInvariants(t, tr)
}

// fromReservations returns the availability left by the reservations on
// an m-processor machine, built as profile.IndexFromReservations builds
// it on this backend.
func fromReservations(m int, res []core.Reservation) (*Tree, error) {
	t := New(m)
	if err := profile.CommitReservations(t, res); err != nil {
		return nil, err
	}
	return t, nil
}

func TestFromReservationsOversubscribed(t *testing.T) {
	res := []core.Reservation{
		{ID: 0, Procs: 5, Start: 0, Len: 10},
		{ID: 1, Procs: 4, Start: 5, Len: 10},
	}
	if _, err := fromReservations(8, res); !errors.Is(err, profile.ErrInsufficient) {
		t.Fatalf("got %v, want ErrInsufficient", err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	tr := New(6)
	if err := tr.Commit(3, 7, 2); err != nil {
		t.Fatal(err)
	}
	cp := tr.Clone()
	if err := cp.Commit(0, 100, 4); err != nil {
		t.Fatal(err)
	}
	if tr.AvailableAt(0) != 6 || tr.String() == cp.String() {
		t.Fatalf("clone shares state: %v vs %v", tr, cp)
	}
	checkInvariants(t, tr)
	checkInvariants(t, cp)
}

func TestBackendRegistered(t *testing.T) {
	idx, err := profile.NewIndex("tree", 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := idx.(*Tree); !ok {
		t.Fatalf("backend %q built %T, want *restree.Tree", "tree", idx)
	}
	if idx.M() != 12 {
		t.Fatal("wrong machine size")
	}
}

func TestFreeAreaAndFirstTime(t *testing.T) {
	tr := New(4)
	if err := tr.Commit(2, 3, 4); err != nil { // capacity 0 on [2,5)
		t.Fatal(err)
	}
	if got := tr.FreeArea(0, 10); got != 2*4+5*4 {
		t.Fatalf("FreeArea(0,10) = %d", got)
	}
	at, ok := tr.FirstTimeWithFreeArea(9)
	if !ok || at != 6 { // 8 by t=2, stalled to t=5, 9th unit during [5,6)
		t.Fatalf("FirstTimeWithFreeArea(9) = %v,%v", at, ok)
	}
	tr2 := New(3)
	if err := tr2.Commit(0, core.Infinity, 3); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr2.FirstTimeWithFreeArea(1); ok {
		t.Fatal("zero-capacity tree cannot accumulate area")
	}
}

// TestSteadyStateAllocatesNothing is the arena's contract as a plain test:
// on a warmed tree of 10⁴ reservations a FindSlot+Commit+Release cycle
// allocates nothing (the breakpoints a commit inserts go into the slots the
// last release emptied, and a leaf it splits off comes from the free list),
// and Clone costs the Tree, the arena and the directory's two arrays, each
// cut to length, with no slack carried over.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	const m = 256
	tr := New(m)
	r := rng.New(3)
	const at = 300_000 // ready times are drawn below it
	for i := 0; i < 10_000; i++ {
		q, dur := r.Intn(m/4)+1, core.Time(r.Intn(100)+1)
		s, _ := tr.FindSlot(core.Time(r.Intn(at)), q, dur)
		if err := tr.Commit(s, dur, q); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func() {
		q, dur := r.Intn(m)+1, core.Time(r.Intn(100)+1)
		s, ok := tr.FindSlot(core.Time(r.Intn(at)), q, dur)
		if !ok {
			t.Fatal("no slot on a finite profile")
		}
		if err := tr.Commit(s, dur, q); err != nil {
			t.Fatal(err)
		}
		if err := tr.Release(s, dur, q); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm: let the free list reach its steady depth
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("FindSlot+Commit+Release allocates %v objects per cycle, want 0", n)
	}
	checkInvariants(t, tr)

	var cp *Tree
	if n := testing.AllocsPerRun(10, func() { cp = tr.Clone() }); n > 4 {
		t.Errorf("Clone allocates %v objects, want the Tree, its arena and the directory's two arrays", n)
	}
	if len(cp.leaves) != len(tr.leaves) || cap(cp.leaves) != len(tr.leaves) {
		t.Errorf("clone arena len=%d cap=%d, want exactly %d", len(cp.leaves), cap(cp.leaves), len(tr.leaves))
	}
	if len(cp.first) != len(tr.first) || cap(cp.first) != len(tr.first) ||
		len(cp.dir) != len(tr.dir) || cap(cp.dir) != len(tr.dir) {
		t.Errorf("clone directory len=%d/%d cap=%d/%d, want exactly %d", len(cp.first), len(cp.dir), cap(cp.first), cap(cp.dir), len(tr.dir))
	}
	checkInvariants(t, cp)
	if cp.String() != tr.String() {
		t.Error("clone renders differently")
	}
}
