package profile

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

func TestNewTimeline(t *testing.T) {
	tl := New(16)
	if tl.AvailableAt(0) != 16 || tl.AvailableAt(1<<40) != 16 {
		t.Fatal("constant timeline wrong")
	}
	if tl.M() != 16 || tl.NumSegments() != 1 {
		t.Fatal("metadata wrong")
	}
}

func TestFromReservations(t *testing.T) {
	res := []core.Reservation{
		{ID: 0, Procs: 4, Start: 10, Len: 10},
		{ID: 1, Procs: 2, Start: 15, Len: 10},
	}
	tl, err := FromReservations(8, res)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		t    core.Time
		want int
	}{{0, 8}, {10, 4}, {14, 4}, {15, 2}, {19, 2}, {20, 6}, {25, 8}}
	for _, c := range cases {
		if got := tl.AvailableAt(c.t); got != c.want {
			t.Errorf("avail(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestFromReservationsOversubscribed(t *testing.T) {
	res := []core.Reservation{
		{ID: 0, Procs: 5, Start: 0, Len: 10},
		{ID: 1, Procs: 4, Start: 5, Len: 10},
	}
	// U is 5, then 9 from t=5: the error names that first instant.
	if _, err := FromReservations(8, res); !errors.Is(err, ErrInsufficient) || !strings.Contains(err.Error(), "at t=5") {
		t.Fatalf("got %v, want ErrInsufficient at t=5", err)
	}
}

func TestCommitAndAvailability(t *testing.T) {
	tl := New(10)
	if err := tl.Commit(5, 10, 4); err != nil {
		t.Fatal(err)
	}
	if tl.AvailableAt(4) != 10 || tl.AvailableAt(5) != 6 || tl.AvailableAt(14) != 6 || tl.AvailableAt(15) != 10 {
		t.Fatalf("after commit: %v", tl)
	}
}

func TestCommitInsufficient(t *testing.T) {
	tl := New(4)
	if err := tl.Commit(0, 10, 3); err != nil {
		t.Fatal(err)
	}
	err := tl.Commit(5, 10, 2)
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("got %v, want ErrInsufficient", err)
	}
	// Timeline unchanged by the failed commit.
	if tl.AvailableAt(5) != 1 || tl.AvailableAt(12) != 4 {
		t.Fatalf("failed commit mutated timeline: %v", tl)
	}
}

func TestCommitZeroIsNoop(t *testing.T) {
	tl := New(4)
	if err := tl.Commit(0, 5, 0); err != nil {
		t.Fatal(err)
	}
	if tl.NumSegments() != 1 {
		t.Fatalf("zero commit changed timeline: %v", tl)
	}
}

func TestReleaseUndoesCommit(t *testing.T) {
	tl := New(7)
	if err := tl.Commit(3, 4, 5); err != nil {
		t.Fatal(err)
	}
	if err := tl.Release(3, 4, 5); err != nil {
		t.Fatal(err)
	}
	if tl.NumSegments() != 1 || tl.AvailableAt(4) != 7 {
		t.Fatalf("release did not restore: %v", tl)
	}
}

func TestReleaseBeyondCapacity(t *testing.T) {
	tl := New(5)
	if err := tl.Release(0, 4, 1); !errors.Is(err, ErrOverRelease) {
		t.Fatalf("got %v, want ErrOverRelease", err)
	}
}

func TestMinAvailable(t *testing.T) {
	tl := New(10)
	_ = tl.Commit(5, 5, 4) // [5,10): 6
	_ = tl.Commit(8, 4, 3) // [8,12): -3 => [8,10):3, [10,12):7
	cases := []struct {
		t0, t1 core.Time
		want   int
	}{
		{0, 5, 10}, {0, 6, 6}, {5, 8, 6}, {8, 10, 3}, {0, core.Infinity, 3},
		{10, 12, 7}, {12, 20, 10}, {9, 11, 3},
	}
	for _, c := range cases {
		if got := tl.MinAvailable(c.t0, c.t1); got != c.want {
			t.Errorf("MinAvailable(%v,%v) = %d, want %d", c.t0, c.t1, got, c.want)
		}
	}
}

func TestCanPlace(t *testing.T) {
	tl := New(8)
	_ = tl.Commit(10, 10, 6) // [10,20): 2
	if !tl.CanPlace(0, 10, 8) {
		t.Error("window before commitment should fit")
	}
	if tl.CanPlace(0, 11, 3) {
		t.Error("window overlapping low segment must not fit")
	}
	if !tl.CanPlace(5, 5, 8) {
		t.Error("[5,10) should fit 8")
	}
	if !tl.CanPlace(10, 5, 2) {
		t.Error("[10,15) should fit 2")
	}
}

func TestFindSlotBasic(t *testing.T) {
	tl := New(8)
	_ = tl.Commit(10, 10, 6) // [10,20): 2 free
	cases := []struct {
		ready core.Time
		q     int
		dur   core.Time
		want  core.Time
	}{
		{0, 8, 10, 0},  // fits exactly before the block
		{0, 8, 11, 20}, // must wait for block to clear
		{0, 2, 100, 0}, // thin job fits through
		{5, 3, 5, 5},   // [5,10) has 8 free
		{5, 3, 6, 20},  // would overlap block
		{15, 2, 3, 15}, // inside block, thin enough
		{15, 3, 3, 20}, // inside block, too wide
		{25, 8, 1, 25}, // after everything
	}
	for _, c := range cases {
		got, ok := tl.FindSlot(c.ready, c.q, c.dur)
		if !ok || got != c.want {
			t.Errorf("FindSlot(%v,%d,%v) = %v,%v want %v", c.ready, c.q, c.dur, got, ok, c.want)
		}
	}
}

func TestFindSlotNever(t *testing.T) {
	tl := New(4)
	// Consume 2 procs forever.
	if err := tl.Commit(3, core.Infinity, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := tl.FindSlot(0, 3, 10); ok {
		t.Error("3 procs for 10 ticks should be impossible after t=3... unless it fits before")
	}
	// It does NOT fit before: [0,3) is only 3 ticks but dur=10.
	if got, ok := tl.FindSlot(0, 3, 3); !ok || got != 0 {
		t.Errorf("3 procs for 3 ticks fits at 0: got %v,%v", got, ok)
	}
	if _, ok := tl.FindSlot(1, 3, 3); ok {
		t.Error("after t=1 there is no 3-proc window of length 3 ever again")
	}
}

func TestFindSlotInfiniteDuration(t *testing.T) {
	tl := New(4)
	_ = tl.Commit(5, 10, 3) // [5,15): 1
	got, ok := tl.FindSlot(0, 2, core.Infinity)
	if !ok || got != 15 {
		t.Errorf("infinite-duration slot = %v,%v; want 15", got, ok)
	}
	got, ok = tl.FindSlot(0, 1, core.Infinity)
	if !ok || got != 0 {
		t.Errorf("width-1 infinite slot = %v,%v; want 0", got, ok)
	}
}

func TestFindSlotRespectsReady(t *testing.T) {
	tl := New(4)
	got, ok := tl.FindSlot(17, 4, 3)
	if !ok || got != 17 {
		t.Errorf("FindSlot from ready=17 on empty machine = %v,%v", got, ok)
	}
	got, ok = tl.FindSlot(-5, 1, 1)
	if !ok || got != 0 {
		t.Errorf("negative ready should clamp to 0, got %v", got)
	}
}

func TestNextBreakpoint(t *testing.T) {
	tl := New(8)
	_ = tl.Commit(10, 5, 2)
	bp, ok := tl.NextBreakpoint(0)
	if !ok || bp != 10 {
		t.Errorf("NextBreakpoint(0) = %v,%v", bp, ok)
	}
	bp, ok = tl.NextBreakpoint(10)
	if !ok || bp != 15 {
		t.Errorf("NextBreakpoint(10) = %v,%v", bp, ok)
	}
	if _, ok := tl.NextBreakpoint(15); ok {
		t.Error("no breakpoint after the last")
	}
}

func TestFreeArea(t *testing.T) {
	tl := New(10)
	_ = tl.Commit(5, 5, 4) // [5,10): 6
	if got := tl.FreeArea(0, 10); got != 5*10+5*6 {
		t.Errorf("FreeArea(0,10) = %d", got)
	}
	if got := tl.FreeArea(5, 5); got != 0 {
		t.Errorf("FreeArea empty window = %d", got)
	}
	if got := tl.FreeArea(7, 12); got != 3*6+2*10 {
		t.Errorf("FreeArea(7,12) = %d", got)
	}
}

func TestFirstTimeWithFreeArea(t *testing.T) {
	tl := New(4)
	_ = tl.Commit(0, 10, 4) // nothing free until 10
	got, ok := tl.FirstTimeWithFreeArea(8)
	if !ok || got != 12 {
		t.Errorf("FirstTimeWithFreeArea(8) = %v,%v; want 12", got, ok)
	}
	got, ok = tl.FirstTimeWithFreeArea(0)
	if !ok || got != 0 {
		t.Errorf("FirstTimeWithFreeArea(0) = %v,%v; want 0", got, ok)
	}
	// Partial segment arithmetic: capacity 4 from t=10, need 7 => ceil(7/4)=2 ticks.
	got, ok = tl.FirstTimeWithFreeArea(7)
	if !ok || got != 12 {
		t.Errorf("FirstTimeWithFreeArea(7) = %v,%v; want 12", got, ok)
	}
}

func TestFirstTimeWithFreeAreaNever(t *testing.T) {
	tl := New(3)
	_ = tl.Commit(0, core.Infinity, 3)
	if _, ok := tl.FirstTimeWithFreeArea(1); ok {
		t.Error("area should never accumulate on a dead machine")
	}
}

func TestCloneIndependence(t *testing.T) {
	tl := New(6)
	_ = tl.Commit(0, 5, 2)
	cp := tl.Clone()
	_ = cp.Commit(0, 5, 2)
	if tl.AvailableAt(0) != 4 || cp.AvailableAt(0) != 2 {
		t.Fatalf("clone not independent: %v vs %v", tl, cp)
	}
}

func TestCoalescing(t *testing.T) {
	tl := New(8)
	_ = tl.Commit(0, 10, 3)
	_ = tl.Commit(10, 10, 3)
	// Two adjacent commits of equal width: one merged segment plus tail.
	if tl.NumSegments() != 2 {
		t.Fatalf("expected coalesced 2 segments, got %d: %v", tl.NumSegments(), tl)
	}
	_ = tl.Release(0, 20, 3)
	if tl.NumSegments() != 1 {
		t.Fatalf("release should restore a single segment: %v", tl)
	}
}

func TestCommitInvalidWindows(t *testing.T) {
	tl := New(4)
	if err := tl.Commit(-1, 5, 1); !errors.Is(err, ErrBadWindow) {
		t.Errorf("negative start: %v", err)
	}
	if err := tl.Commit(0, 0, 1); !errors.Is(err, ErrBadWindow) {
		t.Errorf("zero duration: %v", err)
	}
	if err := tl.Commit(0, 5, -2); err == nil {
		t.Error("negative q accepted")
	}
}

// refTimeline is a brute-force array-backed reference implementation over a
// finite horizon, used to cross-check the segment algebra.
type refTimeline struct {
	cap []int
}

func newRef(m int, horizon int) *refTimeline {
	r := &refTimeline{cap: make([]int, horizon)}
	for i := range r.cap {
		r.cap[i] = m
	}
	return r
}

func (r *refTimeline) commit(start, dur core.Time, q int) bool {
	for t := start; t < start+dur; t++ {
		if r.cap[t] < q {
			return false
		}
	}
	for t := start; t < start+dur; t++ {
		r.cap[t] -= q
	}
	return true
}

func (r *refTimeline) findSlot(ready core.Time, q int, dur core.Time) (core.Time, bool) {
	for s := ready; s+dur <= core.Time(len(r.cap)); s++ {
		ok := true
		for t := s; t < s+dur; t++ {
			if r.cap[t] < q {
				ok = false
				break
			}
		}
		if ok {
			return s, true
		}
	}
	return 0, false
}

func TestAgainstBruteForce(t *testing.T) {
	const horizon = 64
	r := rng.New(1001)
	for trial := 0; trial < 300; trial++ {
		m := r.IntRange(1, 8)
		tl := New(m)
		ref := newRef(m, horizon)
		// Random committed intervals.
		for k := 0; k < r.IntRange(0, 12); k++ {
			start := core.Time(r.Intn(horizon - 1))
			dur := core.Time(r.IntRange(1, horizon/4))
			if start+dur > horizon {
				dur = horizon - start
			}
			q := r.IntRange(1, m)
			okRef := ref.commit(start, dur, q)
			err := tl.Commit(start, dur, q)
			if okRef != (err == nil) {
				t.Fatalf("trial %d: commit(%v,%v,%d) disagreement: ref=%v err=%v\n%v",
					trial, start, dur, q, okRef, err, tl)
			}
		}
		// Cross-check availability everywhere.
		for tm := 0; tm < horizon; tm++ {
			if got := tl.AvailableAt(core.Time(tm)); got != ref.cap[tm] {
				t.Fatalf("trial %d: avail(%d) = %d, ref %d", trial, tm, got, ref.cap[tm])
			}
		}
		// Cross-check FindSlot for random queries. The reference only sees
		// the horizon, so restrict queries that fit inside it; beyond the
		// horizon the timeline is all-free so any slot the reference fails
		// to find must start after the last commitment.
		for k := 0; k < 20; k++ {
			ready := core.Time(r.Intn(horizon / 2))
			q := r.IntRange(1, m)
			dur := core.Time(r.IntRange(1, horizon/4))
			gotT, gotOK := tl.FindSlot(ready, q, dur)
			refT, refOK := ref.findSlot(ready, q, dur)
			if !gotOK {
				t.Fatalf("trial %d: FindSlot says never on a finite-load machine", trial)
			}
			if refOK {
				if gotT != refT {
					t.Fatalf("trial %d: FindSlot(%v,%d,%v) = %v, ref %v\n%v",
						trial, ready, q, dur, gotT, refT, tl)
				}
			} else if gotT+dur <= horizon {
				t.Fatalf("trial %d: FindSlot found %v inside horizon but reference found none", trial, gotT)
			}
		}
	}
}

func TestCommitReleaseFuzz(t *testing.T) {
	// Property: any interleaving of commits followed by their releases
	// restores the pristine timeline exactly.
	r := rng.New(2002)
	for trial := 0; trial < 200; trial++ {
		m := r.IntRange(1, 10)
		tl := New(m)
		type iv struct {
			s, d core.Time
			q    int
		}
		var committed []iv
		for k := 0; k < r.IntRange(1, 15); k++ {
			c := iv{core.Time(r.Intn(50)), core.Time(r.IntRange(1, 20)), r.IntRange(1, m)}
			if tl.Commit(c.s, c.d, c.q) == nil {
				committed = append(committed, c)
			}
		}
		r.Shuffle(len(committed), func(i, j int) {
			committed[i], committed[j] = committed[j], committed[i]
		})
		for _, c := range committed {
			if err := tl.Release(c.s, c.d, c.q); err != nil {
				t.Fatalf("trial %d: release failed: %v", trial, err)
			}
		}
		if tl.NumSegments() != 1 || tl.AvailableAt(0) != m {
			t.Fatalf("trial %d: timeline not restored: %v", trial, tl)
		}
	}
}

func TestFindSlotIsEarliestAndFeasible(t *testing.T) {
	// Property: the returned slot is feasible, and one tick earlier is not
	// (unless it equals ready).
	r := rng.New(3003)
	for trial := 0; trial < 300; trial++ {
		m := r.IntRange(2, 8)
		tl := New(m)
		for k := 0; k < r.IntRange(0, 10); k++ {
			_ = tl.Commit(core.Time(r.Intn(40)), core.Time(r.IntRange(1, 15)), r.IntRange(1, m))
		}
		ready := core.Time(r.Intn(30))
		q := r.IntRange(1, m)
		dur := core.Time(r.IntRange(1, 10))
		s, ok := tl.FindSlot(ready, q, dur)
		if !ok {
			t.Fatalf("trial %d: no slot on finite-load machine", trial)
		}
		if s < ready {
			t.Fatalf("trial %d: slot %v before ready %v", trial, s, ready)
		}
		if !tl.CanPlace(s, dur, q) {
			t.Fatalf("trial %d: returned slot infeasible", trial)
		}
		if s > ready && tl.CanPlace(s-1, dur, q) {
			t.Fatalf("trial %d: slot %v not earliest (s-1 also fits)\n%v", trial, s, tl)
		}
	}
}

func BenchmarkCommit(b *testing.B) {
	r := rng.New(1)
	tl := New(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.Time(r.Intn(10000))
		if tl.Commit(s, 10, 4) != nil {
			b.StopTimer()
			tl = New(64)
			b.StartTimer()
		}
	}
}

func BenchmarkFindSlot(b *testing.B) {
	r := rng.New(2)
	tl := New(64)
	for k := 0; k < 1000; k++ {
		_ = tl.Commit(core.Time(r.Intn(100000)), core.Time(r.IntRange(1, 50)), r.IntRange(1, 32))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.FindSlot(core.Time(r.Intn(50000)), 40, 100)
	}
}
