package restree

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/rng"
)

// replayReservations is the construction the sweep replaced, kept as its
// oracle: the reservations committed one by one, in input order.
func replayReservations(idx profile.CapacityIndex, res []core.Reservation) error {
	for _, r := range res {
		if err := idx.Commit(r.Start, r.Len, r.Procs); err != nil {
			return fmt.Errorf("reservation %d: %w", r.ID, err)
		}
	}
	return nil
}

// buildCase draws one reservation set. The shape cycles with the seed:
// random windows, windows on a coarse grid (equal-time starts and ends),
// chains of back-to-back windows of one width (which U merges), and sets
// with endless reservations and a finite one ending at core.Infinity.
// Then m is set by the seed: to U's peak (the set fits, with no room at
// the peak), one below it, left as drawn, or to the sum of the widths,
// with one bad window put at a random position: zero or negative
// duration, negative start, or a finite window past the end of time. It
// returns the bad reservation's id, or -1.
func buildCase(seed uint64) (m int, res []core.Reservation, bad int) {
	r := rng.New(seed)
	m = r.Intn(16) + 1
	n := r.Intn(40)
	add := func(q int, start, dur core.Time) {
		res = append(res, core.Reservation{ID: len(res), Procs: q, Start: start, Len: dur})
	}
	switch seed % 4 {
	case 0:
		for i := 0; i < n; i++ {
			add(r.Intn(m)+1, core.Time(r.Intn(500)), core.Time(r.Intn(100)+1))
		}
	case 1:
		for i := 0; i < n; i++ {
			add(r.Intn(m)+1, core.Time(10*r.Intn(10)), core.Time(10*(r.Intn(3)+1)))
		}
	case 2:
		for at := core.Time(r.Intn(20)); len(res) < n; {
			q := r.Intn(m) + 1
			for k := r.Intn(4) + 1; k > 0 && len(res) < n; k-- {
				l := core.Time(r.Intn(30) + 1)
				add(q, at, l)
				at += l
			}
			at += core.Time(r.Intn(3)) // 0 keeps the next chain adjacent
		}
	case 3:
		for i := 0; i < n; i++ {
			l := core.Time(r.Intn(100) + 1)
			if r.Intn(4) == 0 {
				l = core.Infinity
			}
			add(r.Intn(m)+1, core.Time(r.Intn(300)), l)
		}
		if n > 0 {
			s := core.Time(r.Intn(300))
			add(1, s, core.Infinity-s)
		}
	}
	bad = -1
	switch peak := core.UnavailabilityOf(res).Max(); (seed / 4) % 4 {
	case 1: // fits, and somewhere exactly
		m = max(peak, 1)
	case 2: // over by one at the peak
		m = max(peak-1, 1)
	case 3: // the random m: mostly over
	case 0:
		if len(res) == 0 {
			break
		}
		m = 0
		for _, x := range res {
			m += x.Procs
		}
		k := r.Intn(len(res))
		switch r.Intn(4) {
		case 0:
			res[k].Len = 0
		case 1:
			res[k].Len = -core.Time(r.Intn(10) + 1)
		case 2:
			res[k].Start = -1
		case 3:
			res[k].Start, res[k].Len = core.Infinity-5, 10
		}
		bad = res[k].ID
	}
	return m, res, bad
}

// TestSweepBuildMatchesReplay: on both backends, the index built by one
// sweep of U (profile.IndexFromReservations; profile.FromReservations
// and sched's set-up commit the same sweep) equals the commit replay's in
// String, NumSegments and Breakpoints, and fails with the same error
// identity: ErrInsufficient for an oversubscribed set, ErrBadWindow
// naming the reservation for a bad window.
func TestSweepBuildMatchesReplay(t *testing.T) {
	var ok, insufficient, badWindow int
	for seed := uint64(1); seed <= 400; seed++ {
		m, res, bad := buildCase(seed)
		for _, backend := range []string{"array", "tree"} {
			got, err := profile.IndexFromReservations(backend, m, res)
			want, _ := profile.NewIndex(backend, m)
			wantErr := replayReservations(want, res)
			label := fmt.Sprintf("seed %d, %s, m=%d, %d reservations", seed, backend, m, len(res))
			switch {
			case wantErr == nil && err == nil:
			case errors.Is(wantErr, profile.ErrInsufficient) && errors.Is(err, profile.ErrInsufficient):
				insufficient++
				continue
			case errors.Is(wantErr, profile.ErrBadWindow) && errors.Is(err, profile.ErrBadWindow):
				if name := fmt.Sprintf("reservation %d:", bad); !strings.Contains(err.Error(), name) {
					t.Fatalf("%s: %v does not name %q", label, err, name)
				}
				badWindow++
				continue
			default:
				t.Fatalf("%s: sweep error %v, replay error %v", label, err, wantErr)
			}
			if bad >= 0 {
				t.Fatalf("%s: reservation %d's bad window was accepted", label, bad)
			}
			if got.String() != want.String() || got.NumSegments() != want.NumSegments() ||
				!slices.Equal(got.Breakpoints(), want.Breakpoints()) {
				t.Fatalf("%s: sweep built\n  %v (%d segments)\nreplay built\n  %v (%d segments)",
					label, got, got.NumSegments(), want, want.NumSegments())
			}
			if tr, isTree := got.(*Tree); isTree {
				checkInvariants(t, tr)
			}
			ok++
		}
	}
	t.Logf("%d built, %d oversubscribed, %d bad windows", ok, insufficient, badWindow)
	if ok < 200 || insufficient == 0 || badWindow == 0 {
		t.Fatalf("the cases reach too little: %d built, %d oversubscribed, %d bad windows", ok, insufficient, badWindow)
	}
}
