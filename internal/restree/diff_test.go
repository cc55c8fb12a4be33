package restree

import (
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/rng"
)

// compareAll asserts that every observation the CapacityIndex interface
// offers agrees between the tree and the array timeline. Because both
// backends maintain the same canonical segment form, this includes the
// structural views (breakpoints, segment counts, String), not just the
// capacity function.
func compareAll(t *testing.T, tr *Tree, tl *profile.Timeline, horizon core.Time) {
	t.Helper()
	if tr.String() != tl.String() {
		t.Fatalf("segment forms diverge:\ntree:  %v\narray: %v", tr, tl)
	}
	if tr.NumSegments() != tl.NumSegments() {
		t.Fatalf("NumSegments %d vs %d", tr.NumSegments(), tl.NumSegments())
	}
	for at := core.Time(0); at < horizon; at++ {
		if g, w := tr.AvailableAt(at), tl.AvailableAt(at); g != w {
			t.Fatalf("AvailableAt(%v) = %d, array %d", at, g, w)
		}
		gbp, gok := tr.NextBreakpoint(at)
		wbp, wok := tl.NextBreakpoint(at)
		if gok != wok || (gok && gbp != wbp) {
			t.Fatalf("NextBreakpoint(%v) = %v,%v vs %v,%v", at, gbp, gok, wbp, wok)
		}
	}
	if g, w := tr.FreeArea(0, horizon), tl.FreeArea(0, horizon); g != w {
		t.Fatalf("FreeArea(0,%v) = %d, array %d", horizon, g, w)
	}
}

// TestDifferentialRandomOps drives the tree and the array timeline through
// identical random op streams — commits, releases of live commitments, and
// probe batches — and requires exact agreement after every step.
func TestDifferentialRandomOps(t *testing.T) {
	const (
		m       = 13
		horizon = 200
		rounds  = 400
	)
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		tr := New(m)
		tl := profile.New(m)
		type iv struct {
			s, d core.Time
			q    int
		}
		var live []iv
		for i := 0; i < rounds; i++ {
			switch op := r.Intn(10); {
			case op < 5: // commit a random window
				w := iv{
					s: core.Time(r.Intn(horizon)),
					d: core.Time(r.Intn(40) + 1),
					q: r.Intn(m) + 1,
				}
				if r.Intn(20) == 0 {
					w.d = core.Infinity // occasional infinite reservation
				}
				errT := tr.Commit(w.s, w.d, w.q)
				errA := tl.Commit(w.s, w.d, w.q)
				if (errT == nil) != (errA == nil) {
					t.Fatalf("seed %d: Commit(%v,%v,%d): tree err %v, array err %v",
						seed, w.s, w.d, w.q, errT, errA)
				}
				if errT == nil {
					live = append(live, w)
				}
			case op < 8: // release a random live commitment
				if len(live) == 0 {
					continue
				}
				k := r.Intn(len(live))
				w := live[k]
				live = append(live[:k], live[k+1:]...)
				errT := tr.Release(w.s, w.d, w.q)
				errA := tl.Release(w.s, w.d, w.q)
				if errT != nil || errA != nil {
					t.Fatalf("seed %d: Release(%v,%v,%d): tree %v, array %v",
						seed, w.s, w.d, w.q, errT, errA)
				}
			default: // probe FindSlot and MinIn
				ready := core.Time(r.Intn(horizon))
				q := r.Intn(m) + 1
				dur := core.Time(r.Intn(30) + 1)
				gs, gok := tr.FindSlot(ready, q, dur)
				ws, wok := tl.FindSlot(ready, q, dur)
				if gok != wok || (gok && gs != ws) {
					t.Fatalf("seed %d: FindSlot(q=%d,dur=%v,from=%v) = %v,%v; array %v,%v\ntree:  %v\narray: %v",
						seed, q, dur, ready, gs, gok, ws, wok, tr, tl)
				}
				if g, w := tr.MinAvailable(ready, ready+dur), tl.MinAvailable(ready, ready+dur); g != w {
					t.Fatalf("seed %d: MinAvailable(%v,%v) = %d, array %d", seed, ready, ready+dur, g, w)
				}
			}
			checkInvariants(t, tr)
			compareAll(t, tr, tl, horizon+64)
		}
	}
}

// TestDifferentialFromReservations checks the constructor path on random
// reservation sets, including oversubscribed ones.
func TestDifferentialFromReservations(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		m := r.Intn(32) + 1
		var res []core.Reservation
		for i := 0; i < r.Intn(30); i++ {
			res = append(res, core.Reservation{
				ID:    i,
				Procs: r.Intn(m) + 1,
				Start: core.Time(r.Intn(500)),
				Len:   core.Time(r.Intn(100) + 1),
			})
		}
		tr, errT := fromReservations(m, res)
		tl, errA := profile.FromReservations(m, res)
		if (errT == nil) != (errA == nil) {
			t.Fatalf("seed %d: tree err %v, array err %v", seed, errT, errA)
		}
		if errT == nil {
			checkInvariants(t, tr)
			compareAll(t, tr, tl, 700)
		}
	}
}

// TestDifferentialLargeState is the differential suite at the shape of the
// benchmark's admit-large shard, scaled to what the array backend can keep
// up with: m=256, more than 2·10⁴ segments with half the reservable prefix
// booked under an α=0.25 floor, then a mix of ordinary admissions,
// near-machine-wide ones (q+floor in [224,256], whose earliest fit has to
// pass hundreds of blocking segments), infinite-tail commits, releases and
// window probes. Hundreds of leaves, with their splits, drops and merges,
// and the sweep's long blocking runs only happen at this size.
func TestDifferentialLargeState(t *testing.T) {
	const (
		m       = 256
		floor   = 64 // ⌊αm⌋
		horizon = 420_000
		preload = 12_500
		rounds  = 4_000
	)
	for _, seed := range []uint64{1, 2} {
		r := rng.New(seed)
		tr, tl := New(m), profile.New(m)
		type iv struct {
			s, d core.Time
			q    int
		}
		var live []iv
		// admit asks both backends for the earliest fit above the floor,
		// requires the same answer, books it on both and returns the start.
		admit := func(ready core.Time, q int, dur core.Time) core.Time {
			gs, gok := tr.FindSlot(ready, q+floor, dur)
			ws, wok := tl.FindSlot(ready, q+floor, dur)
			if gok != wok || gs != ws {
				t.Fatalf("seed %d: FindSlot(%v,%d,%v) = %v,%v; array %v,%v", seed, ready, q+floor, dur, gs, gok, ws, wok)
			}
			if !gok { // an infinite reservation left the tail too narrow
				return ready
			}
			errT, errA := tr.Commit(gs, dur, q), tl.Commit(gs, dur, q)
			if errT != nil || errA != nil {
				t.Fatalf("seed %d: Commit(%v,%v,%d): tree %v, array %v", seed, gs, dur, q, errT, errA)
			}
			live = append(live, iv{gs, dur, q})
			return gs
		}
		compare := func() {
			t.Helper()
			checkInvariants(t, tr)
			if tr.NumSegments() != tl.NumSegments() || tr.String() != tl.String() {
				t.Fatalf("seed %d: segment forms diverge (%d segments, array %d)", seed, tr.NumSegments(), tl.NumSegments())
			}
		}
		for i := 0; i < preload; i++ {
			admit(core.Time(r.Intn(horizon)), r.Intn(64)+1, core.Time(r.Intn(161)+20))
		}
		compare()
		if tr.NumSegments() < 20_000 {
			t.Fatalf("seed %d: preload built %d segments, want >= 20000", seed, tr.NumSegments())
		}
		longest := 0
		for i := 0; i < rounds; i++ {
			switch op := r.Intn(20); {
			case op < 3: // near-machine-wide admission
				ready := core.Time(r.Intn(horizon))
				s := admit(ready, r.Intn(33)+160, core.Time(r.Intn(161)+20))
				passed := 0 // breakpoints the search moved past
				for bp, ok := tr.NextBreakpoint(ready); ok && bp <= s; bp, ok = tr.NextBreakpoint(bp) {
					passed++
				}
				longest = max(longest, passed)
			case op < 9:
				admit(core.Time(r.Intn(horizon)), r.Intn(64)+1, core.Time(r.Intn(161)+20))
			case op < 10: // a reservation that never ends
				w := iv{core.Time(r.Intn(2 * horizon)), core.Infinity, r.Intn(4) + 1}
				errT, errA := tr.Commit(w.s, w.d, w.q), tl.Commit(w.s, w.d, w.q)
				if (errT == nil) != (errA == nil) {
					t.Fatalf("seed %d: Commit(%v,inf,%d): tree %v, array %v", seed, w.s, w.q, errT, errA)
				}
				if errT == nil {
					live = append(live, w)
				}
			case op < 17:
				k := r.Intn(len(live))
				w := live[k]
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				errT, errA := tr.Release(w.s, w.d, w.q), tl.Release(w.s, w.d, w.q)
				if errT != nil || errA != nil {
					t.Fatalf("seed %d: Release(%v,%v,%d): tree %v, array %v", seed, w.s, w.d, w.q, errT, errA)
				}
			default:
				a := core.Time(r.Intn(horizon))
				b := a + core.Time(r.Intn(5000)+1)
				if g, w := tr.MinAvailable(a, b), tl.MinAvailable(a, b); g != w {
					t.Fatalf("seed %d: MinAvailable(%v,%v) = %d, array %d", seed, a, b, g, w)
				}
			}
			if i%500 == 0 {
				compare()
			}
		}
		compare()
		if longest < 200 {
			t.Fatalf("seed %d: the widest search passed %d breakpoints, want a run of hundreds", seed, longest)
		}
	}
}
