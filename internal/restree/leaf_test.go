package restree

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/rng"
)

// pair drives the tree and the array timeline through the same mutations;
// every test below is about what happens where one leaf ends and the next
// begins, and the timeline, which has no leaves, is the reference.
type pair struct {
	t  *testing.T
	tr *Tree
	tl *profile.Timeline
}

type window struct {
	s, d core.Time
	q    int
}

func newPair(t *testing.T, m int) *pair {
	return &pair{t: t, tr: New(m), tl: profile.New(m)}
}

func (p *pair) commit(w window) {
	p.t.Helper()
	if errT, errA := p.tr.Commit(w.s, w.d, w.q), p.tl.Commit(w.s, w.d, w.q); errT != nil || errA != nil {
		p.t.Fatalf("Commit(%v,%v,%d): tree %v, array %v", w.s, w.d, w.q, errT, errA)
	}
}

func (p *pair) release(w window) {
	p.t.Helper()
	if errT, errA := p.tr.Release(w.s, w.d, w.q), p.tl.Release(w.s, w.d, w.q); errT != nil || errA != nil {
		p.t.Fatalf("Release(%v,%v,%d): tree %v, array %v", w.s, w.d, w.q, errT, errA)
	}
}

// same checks the invariants and that both render the same segments.
func (p *pair) same() {
	p.t.Helper()
	checkInvariants(p.t, p.tr)
	if !sameSegments(p.tr, p.tl) {
		p.t.Fatalf("segment forms diverge (%d segments, array %d):\ntree:  %v\narray: %v",
			p.tr.NumSegments(), p.tl.NumSegments(), p.tr, p.tl)
	}
}

// freeLeaves counts the free list.
func freeLeaves(tr *Tree) int {
	n := 0
	for i := tr.free; i != -1; i = tr.leaves[i].avail[0] {
		n++
	}
	return n
}

// TestLeafDrainAndRefill books 10⁴ reservations, releases every one in a
// seeded random order and books them again: the drained tree is the one
// segment [0,∞)=m in one live leaf with every other arena slot on the free
// list, and the refill, which needs as many leaves as the fill did, takes
// them all from there. Seven long reservations ending one after the other
// lie under the rest until the end, so that capacity rises with time and
// merging leaves differ in both extremes.
func TestLeafDrainAndRefill(t *testing.T) {
	const (
		m    = 256
		seed = 11
		at   = 300_000
	)
	p := newPair(t, m)
	r := rng.New(seed)
	var stairs, booked []window
	for k := 1; k <= 7; k++ {
		stairs = append(stairs, window{s: 0, d: at * core.Time(k) / 8, q: 8})
		p.commit(stairs[k-1])
	}
	for i := 0; i < 10_000; i++ {
		w := window{d: core.Time(r.Intn(100) + 1), q: r.Intn(m/4) + 1}
		w.s, _ = p.tl.FindSlot(core.Time(r.Intn(at)), w.q, w.d)
		booked = append(booked, w)
		p.commit(w)
	}
	p.same()
	arena := len(p.tr.leaves)
	if len(p.tr.dir) < 100 {
		t.Fatalf("seed %d: %d segments in %d leaves, want hundreds of leaves", seed, p.tr.NumSegments(), len(p.tr.dir))
	}
	order := append([]window(nil), booked...)
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for n, w := range append(order, stairs...) {
		p.release(w)
		if n%16 == 0 {
			checkInvariants(t, p.tr)
		}
		if n%250 == 0 {
			p.same()
		}
		// Releases merge leaves as they thin them out: two neighbours that
		// fit in half a leaf do not both survive, so the fill stays above a
		// quarter, give or take the pair a merge at both ends leaves behind.
		if n == len(order)*9/10 && p.tr.NumSegments() < leafCap/4*len(p.tr.dir) {
			t.Fatalf("seed %d: with a tenth still booked, %d segments sit in %d leaves", seed, p.tr.NumSegments(), len(p.tr.dir))
		}
	}
	p.same()
	if p.tr.NumSegments() != 1 || len(p.tr.dir) != 1 || p.tr.AvailableAt(0) != m {
		t.Fatalf("seed %d: drained tree is %v in %d leaves", seed, p.tr, len(p.tr.dir))
	}
	if got := freeLeaves(p.tr); got != arena-1 || len(p.tr.leaves) != arena {
		t.Fatalf("seed %d: %d of %d arena slots free after the drain, want all but one of %d", seed, got, len(p.tr.leaves), arena)
	}
	for _, w := range append(stairs, booked...) {
		p.commit(w)
	}
	p.same()
	if len(p.tr.leaves) != arena {
		t.Fatalf("seed %d: the refill grew the arena from %d to %d leaves", seed, arena, len(p.tr.leaves))
	}
}

// TestLeafSplitsAtTheEdges commits disjoint windows in ascending order, so
// that every new breakpoint lands past the last one of the last leaf and,
// when that leaf is full, opens the next one, and in descending order, so
// that it lands right behind the first slot of the first leaf, which lends
// to the next leaf while that one has room and splits when it has none;
// then releases them from either end, which heals away leaves' first
// entries and drops emptied leaves. Both builds fill their leaves three
// quarters and more, and the ascending one every leaf but the last.
func TestLeafSplitsAtTheEdges(t *testing.T) {
	const n = 6 * leafCap
	ws := make([]window, n)
	for i := range ws {
		ws[i] = window{s: core.Time(10*i + 5), d: 3, q: 1 + i%3}
	}
	for _, descending := range []bool{false, true} {
		p := newPair(t, 8)
		in := func(i int) window {
			if descending {
				return ws[n-1-i]
			}
			return ws[i]
		}
		for i := 0; i < n; i++ {
			p.commit(in(i))
			p.same()
		}
		if len(p.tr.dir) < 2*n/leafCap || p.tr.NumSegments() < leafCap*3/4*len(p.tr.dir) {
			t.Fatalf("descending=%v: %d breakpoints in %d leaves", descending, 2*n, len(p.tr.dir))
		}
		for d, e := range p.tr.dir[:len(p.tr.dir)-1] {
			if !descending && e.n != leafCap {
				t.Fatalf("ascending: leaf %d of %d holds %d segments", d, len(p.tr.dir), e.n)
			}
		}
		for i := 0; i < n/2; i++ { // the same end first, then the other
			p.release(in(i))
			p.same()
		}
		for i := n - 1; i >= n/2; i-- {
			p.release(in(i))
			p.same()
		}
		if p.tr.NumSegments() != 1 || len(p.tr.dir) != 1 {
			t.Fatalf("descending=%v: released everything, left with %v in %d leaves", descending, p.tr, len(p.tr.dir))
		}
	}
}

// TestLeafInfiniteTailAcrossLeaves commits, at every leaf's first start, a
// reservation that never ends and releases it again. The window runs over
// all later leaves (three and more), which take the delta on their
// aggregates; where the leaf's first breakpoint was the end of a booking
// of the same width, the commit heals it away — the leaf loses its first
// entry and its directory key moves — and the release cuts it back in.
// The bookings are committed in a seeded random order: in time order every
// leaf would open at a booking's start, and no key would be an end.
func TestLeafInfiniteTailAcrossLeaves(t *testing.T) {
	const seed = 5
	p := newPair(t, 8)
	r := rng.New(seed)
	ws := make([]window, 4*leafCap)
	for i := range ws {
		ws[i] = window{s: core.Time(10*i + 5), d: core.Time(r.Intn(5) + 1), q: r.Intn(2) + 1}
	}
	r.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	for _, w := range ws {
		p.commit(w)
	}
	p.same()
	if len(p.tr.dir) < 6 {
		t.Fatalf("seed %d: only %d leaves", seed, len(p.tr.dir))
	}
	moved := 0
	for _, at := range append([]core.Time(nil), p.tr.first[1:]...) {
		for q := 1; q <= 2; q++ {
			d := lastLE(p.tr.first, at)
			isFirst := p.tr.first[d] == at // an earlier round may have moved the boundary
			w := window{s: at, d: core.Infinity, q: q}
			p.commit(w)
			p.same()
			if d2 := lastLE(p.tr.first, at); isFirst && p.tr.first[d2] != at {
				moved++
			}
			if got, ok := p.tr.FindSlot(at, 8, 1); ok {
				t.Fatalf("seed %d: full width fits at %v under an endless reservation from %v", seed, got, at)
			}
			p.release(w)
			p.same()
		}
	}
	if moved == 0 {
		t.Fatalf("seed %d: no commit healed a leaf's first entry away", seed)
	}
}

// TestLeafBoundaryReads asks every read at, one tick before and one tick
// after each leaf's first start.
func TestLeafBoundaryReads(t *testing.T) {
	const (
		m    = 16
		seed = 7
	)
	p := newPair(t, m)
	r := rng.New(seed)
	for i := 0; i < 400; i++ {
		w := window{s: core.Time(r.Intn(4000)), d: core.Time(r.Intn(30) + 1), q: r.Intn(4) + 1}
		if p.tl.CanPlace(w.s, w.d, w.q) {
			p.commit(w)
		}
	}
	p.same()
	if len(p.tr.dir) < 4 {
		t.Fatalf("seed %d: only %d leaves", seed, len(p.tr.dir))
	}
	tr, tl := p.tr, p.tl
	for _, first := range p.tr.first {
		for at := max(first-1, 0); at <= first+1; at++ {
			if g, w := tr.AvailableAt(at), tl.AvailableAt(at); g != w {
				t.Fatalf("seed %d: AvailableAt(%v) = %d, array %d", seed, at, g, w)
			}
			for _, from := range []core.Time{at, at - 1} { // -1 at the origin
				g, gok := tr.NextBreakpoint(from)
				w, wok := tl.NextBreakpoint(from)
				if g != w || gok != wok {
					t.Fatalf("seed %d: NextBreakpoint(%v) = %v,%v, array %v,%v", seed, from, g, gok, w, wok)
				}
			}
			for _, end := range []core.Time{at + 1, first + 1, first + 2, at + 500, core.Infinity} {
				if end <= at {
					continue
				}
				if g, w := tr.MinAvailable(at, end), tl.MinAvailable(at, end); g != w {
					t.Fatalf("seed %d: MinAvailable(%v,%v) = %d, array %d", seed, at, end, g, w)
				}
				if g, w := tr.MinAvailable(max(at-200, 0), end), tl.MinAvailable(max(at-200, 0), end); g != w {
					t.Fatalf("seed %d: MinAvailable(%v,%v) = %d, array %d", seed, max(at-200, 0), end, g, w)
				}
			}
			for _, from := range []core.Time{0, max(at-200, 0), at} {
				if g, w := tr.FreeArea(from, at), tl.FreeArea(from, at); g != w {
					t.Fatalf("seed %d: FreeArea(%v,%v) = %d, array %d", seed, from, at, g, w)
				}
				if g, w := tr.FreeArea(from, at+300), tl.FreeArea(from, at+300); g != w {
					t.Fatalf("seed %d: FreeArea(%v,%v) = %d, array %d", seed, from, at+300, g, w)
				}
			}
			for area := tl.FreeArea(0, at) - 1; area <= tl.FreeArea(0, at)+1; area++ {
				g, gok := tr.FirstTimeWithFreeArea(area)
				w, wok := tl.FirstTimeWithFreeArea(area)
				if g != w || gok != wok {
					t.Fatalf("seed %d: FirstTimeWithFreeArea(%d) = %v,%v, array %v,%v", seed, area, g, gok, w, wok)
				}
			}
			for q := 1; q <= m; q += 5 {
				g, gok := tr.FindSlot(at, q, 40)
				w, wok := tl.FindSlot(at, q, 40)
				if g != w || gok != wok {
					t.Fatalf("seed %d: FindSlot(%v,%d,40) = %v,%v, array %v,%v", seed, at, q, g, gok, w, wok)
				}
			}
		}
	}
}

// TestLeafFillRandomOrder books 10⁴ reservations at the admission
// benchmark's density — m = 256, widths up to 64, 20 to 180 ticks, ready
// times drawn so that about half the prefix is booked — through FindSlot in
// random order. A full leaf lends to a neighbour before it splits, so the
// leaves end three-quarters full or more, where splits alone leave them
// ln 2 ≈ 0.69 full.
func TestLeafFillRandomOrder(t *testing.T) {
	const (
		m    = 256
		seed = 13
		n    = 10_000
		at   = 260_000
	)
	p := newPair(t, m)
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		w := window{d: core.Time(r.Intn(161) + 20), q: r.Intn(64) + 1}
		w.s, _ = p.tl.FindSlot(core.Time(r.Intn(at)), w.q, w.d)
		p.commit(w)
	}
	p.same()
	if booked := 1 - float64(p.tl.FreeArea(0, at))/(m*at); booked < 0.45 {
		t.Fatalf("seed %d: %.2f of the prefix booked, want about half", seed, booked)
	}
	if segs, leaves := p.tr.NumSegments(), len(p.tr.dir); 4*segs < 3*leafCap*leaves {
		t.Fatalf("seed %d: %d segments in %d leaves, %.3f full; want 0.75", seed, segs, leaves, float64(segs)/float64(leafCap*leaves))
	}
}

// TestLeafSweepBuildFillsLeaves builds trees from reservations with
// profile.CommitReservations, which commits U's segments in time order:
// every new breakpoint lies past the last one, so a full leaf opens the
// next one, and every leaf but the last ends full. The reservations are
// random windows, with gaps between them and without.
func TestLeafSweepBuildFillsLeaves(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		var res []core.Reservation
		for at := core.Time(0); len(res) < 2000; {
			l := core.Time(r.Intn(50) + 1)
			res = append(res, core.Reservation{ID: len(res), Procs: r.Intn(8) + 1, Start: at + core.Time(r.Intn(200)), Len: l})
			if seed%2 == 0 {
				at += core.Time(r.Intn(3)) // mostly overlapping
			} else {
				at += l + core.Time(r.Intn(2)) // back to back, or one tick apart
			}
		}
		tr, err := fromReservations(1<<20, res)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, tr)
		if tl, _ := profile.FromReservations(1<<20, res); !sameSegments(tr, tl) {
			t.Fatalf("seed %d: tree and timeline built different segments", seed)
		}
		if len(tr.dir) < 10 {
			t.Fatalf("seed %d: %d segments in %d leaves, want ten leaves or more", seed, tr.NumSegments(), len(tr.dir))
		}
		for d, e := range tr.dir[:len(tr.dir)-1] {
			if e.n != leafCap {
				t.Fatalf("seed %d: leaf %d of %d holds %d segments", seed, d, len(tr.dir), e.n)
			}
		}
	}
}

// TestLeafLend commits a window into a full leaf beside a neighbour with
// room, and checks the tree after each lend: to the next leaf, whose key
// moves back; to the previous one, when the next has no room, which moves
// the full leaf's key forward; and near core.Infinity, where both
// neighbours have room but a lend would leave a breakpoint out of its
// leaf's reach, so the full leaf splits instead and no key moves.
func TestLeafLend(t *testing.T) {
	// ascending commits len windows [base+4i+1, base+4i+3): two breakpoints
	// each, four ticks apart in pairs, with a free tick between.
	ascending := func(p *pair, base core.Time, from, to int) {
		for i := from; i < to; i++ {
			p.commit(window{s: base + core.Time(4*i+1), d: 2, q: 1})
		}
	}
	t.Run("right", func(t *testing.T) {
		p := newPair(t, 8)
		ascending(p, 0, 0, 53) // leaves of 64 and 43 segments
		p.same()
		key := p.tr.first[1]
		p.commit(window{s: 4*10 + 3, d: 1, q: 1}) // one breakpoint, in leaf 0
		p.same()
		if len(p.tr.dir) != 2 || p.tr.first[1] >= key || p.tr.dir[1].n <= 43 {
			t.Fatalf("no lend to the next leaf: keys %v, was %v", p.tr.first, key)
		}
	})
	t.Run("left", func(t *testing.T) {
		p := newPair(t, 8)
		ascending(p, 0, 0, 63)
		p.commit(window{s: 4*63 - 1, d: 1, q: 2}) // leaves of 64 and 64
		for _, i := range []int{0, 1, 2} {
			p.release(window{s: core.Time(4*i + 1), d: 2, q: 1}) // six free slots in leaf 0
		}
		p.same()
		key, n0 := p.tr.first[1], p.tr.dir[0].n
		p.commit(window{s: 4*40 + 3, d: 1, q: 1}) // one breakpoint, in leaf 1
		p.same()
		if len(p.tr.dir) != 2 || p.tr.first[1] <= key || p.tr.dir[0].n <= n0 {
			t.Fatalf("no lend to the previous leaf: keys %v, was %v", p.tr.first, key)
		}
	})
	t.Run("declined-out-of-reach", func(t *testing.T) {
		p := newPair(t, 8)
		base := core.Infinity - 1<<33
		// A far leaf after the origin's, filled to 64 segments on top of an
		// endless reservation, and one after it whose breakpoints span
		// nearly all of its reach.
		p.commit(window{s: base, d: core.Infinity, q: 1})
		ascending(p, base, 0, 32)
		next := p.tr.first[len(p.tr.first)-1]
		p.commit(window{s: next + 1000, d: 1, q: 1})
		p.commit(window{s: next + math.MaxUint32 - 20, d: 1, q: 1})
		p.same()
		if len(p.tr.dir) != 3 || p.tr.dir[1].n != leafCap || p.tr.dir[0].n > leafCap-lendMin || p.tr.dir[2].n > leafCap-lendMin {
			t.Fatalf("want a full leaf between two with room: %v", p.tr.dir)
		}
		keys := append([]core.Time(nil), p.tr.first...)
		p.commit(window{s: base + 4*10 + 3, d: 1, q: 1})
		p.same()
		if len(p.tr.dir) != 4 || p.tr.first[1] != keys[1] || p.tr.first[3] != keys[2] {
			t.Fatalf("a lend was not declined: keys %v, were %v", p.tr.first, keys)
		}
	})
}

// TestLendSeeds pins what the committed FuzzTreeMatchesTimeline seeds of
// these names are there for: lend-right lends to the next leaf, lend-left
// to the previous one, and full-leaf-one-leaf-path splits a full leaf whose
// neighbours have no room and then edits the window there.
func TestLendSeeds(t *testing.T) {
	for name, ok := range map[string]func(events) bool{
		"lend-right":              func(ev events) bool { return ev.lendRight > 0 && ev.fullLeaf > 0 },
		"lend-left":               func(ev events) bool { return ev.lendLeft > 0 && ev.fullLeaf > 0 },
		"full-leaf-one-leaf-path": func(ev events) bool { return ev.lendRight+ev.lendLeft == 0 && ev.fullLeaf > 0 },
	} {
		if _, ev := replayOps(t, seedOps(t, "FuzzTreeMatchesTimeline", name), 0); !ok(ev) {
			t.Errorf("%s: %+v", name, ev)
		}
	}
}

// TestCrossLeafSeeds pins what the committed FuzzTreeMatchesTimeline seeds
// of these names are there for, each a case a mutation edits in place
// across a leaf boundary: a window over three leaves or more, an end whose
// merge drops the one-segment leaf it was the key of, a start whose merge
// at a leaf's slot 0 moves the key forward, and a window whose start and
// end each need a slot in a different full leaf.
func TestCrossLeafSeeds(t *testing.T) {
	for name, ok := range map[string]func(events) bool{
		"window-spans-three-leaves": func(ev events) bool { return ev.spans3 > 0 },
		"end-merge-drops-leaf":      func(ev events) bool { return ev.endDrop > 0 },
		"start-merge-moves-key":     func(ev events) bool { return ev.startKey > 0 },
		"room-in-two-full-leaves":   func(ev events) bool { return ev.twoFull > 0 },
	} {
		if _, ev := replayOps(t, seedOps(t, "FuzzTreeMatchesTimeline", name), 0); !ok(ev) {
			t.Errorf("%s: %+v", name, ev)
		}
	}
}

// TestLeafSplitHealSeed pins what the committed fuzz seed of that name is
// there for: it builds more than three leaves' worth of breakpoints and
// then releases whole leaves out of the middle.
func TestLeafSplitHealSeed(t *testing.T) {
	tr, _ := replayOps(t, seedOps(t, "FuzzTreeMatchesTimeline", "leaf-split-heal"), 0)
	if len(tr.leaves) < 4 || freeLeaves(tr) != len(tr.leaves)-1 || tr.NumSegments() != 1 {
		t.Fatalf("the seed used %d leaves and left %d free under %v", len(tr.leaves), freeLeaves(tr), tr)
	}
}

// seedOps reads the op stream of a committed corpus entry of a fuzz target.
func seedOps(t *testing.T, target, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, ok := strings.Cut(string(raw), "[]byte(")
	if !ok {
		t.Fatal("not a []byte corpus entry")
	}
	ops, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
	if err != nil {
		t.Fatal(err)
	}
	return []byte(ops)
}

// TestLeafBytes pins a leaf at eight cache lines: 64 uint32 offsets and 64
// int32 capacities.
func TestLeafBytes(t *testing.T) {
	if got := unsafe.Sizeof(leaf{}); got != 512 {
		t.Fatalf("a leaf is %d bytes, want 512", got)
	}
}
