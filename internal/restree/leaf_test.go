package restree

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

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
		// quarter, give or take the pair a two-sided heal leaves behind.
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
// that every new breakpoint lands in the last slot of the last leaf and a
// split happens there, and in descending order, so that it lands right
// behind the first slot of the first leaf; then releases them from either
// end, which heals away leaves' first entries and drops emptied leaves.
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
		if len(p.tr.dir) < 2*n/leafCap {
			t.Fatalf("descending=%v: %d breakpoints in %d leaves", descending, 2*n, len(p.tr.dir))
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
func TestLeafInfiniteTailAcrossLeaves(t *testing.T) {
	const seed = 5
	p := newPair(t, 8)
	r := rng.New(seed)
	for i := 0; i < 4*leafCap; i++ {
		p.commit(window{s: core.Time(10*i + 5), d: core.Time(r.Intn(5) + 1), q: r.Intn(2) + 1})
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
			if got, ok := p.tr.EarliestFit(8, 1, at); ok {
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

// TestLeafSplitHealSeed pins what the committed fuzz seed of that name is
// there for: it builds more than three leaves' worth of breakpoints and
// then releases whole leaves out of the middle.
func TestLeafSplitHealSeed(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzTreeMatchesTimeline", "leaf-split-heal"))
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
	tr := replayOps(t, []byte(ops))
	if len(tr.leaves) < 4 || freeLeaves(tr) != len(tr.leaves)-1 || tr.NumSegments() != 1 {
		t.Fatalf("the seed used %d leaves and left %d free under %v", len(tr.leaves), freeLeaves(tr), tr)
	}
}
