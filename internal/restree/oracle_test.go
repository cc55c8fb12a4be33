package restree

import (
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/rng"
)

// TestIndexPropertyOracles checks two properties of FindSlot that hold for
// any correct capacity index, on every registered backend:
//
//   - sustainability: giving capacity back — releasing a reservation, or
//     shortening one by releasing its tail — never makes any earliest-fit
//     answer later;
//   - significant moments: an earliest-fit start is the ready time or a
//     breakpoint of the profile, never a time in between.
func TestIndexPropertyOracles(t *testing.T) {
	const (
		m       = 64
		horizon = 4000
		probes  = 64
	)
	type iv struct {
		s, d core.Time
		q    int
	}
	type probe struct {
		ready, dur core.Time
		q          int
	}
	for _, backend := range profile.Backends() {
		t.Run(backend, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				r := rng.New(seed)
				idx, err := profile.NewIndex(backend, m)
				if err != nil {
					t.Fatal(err)
				}
				var live []iv
				for i := 0; i < 400; i++ {
					w := iv{core.Time(r.Intn(horizon)), core.Time(r.Intn(120) + 1), r.Intn(m/2) + 1}
					if r.Intn(100) == 0 {
						w.d = core.Infinity
					}
					if idx.Commit(w.s, w.d, w.q) == nil {
						live = append(live, w)
					}
				}
				ps := make([]probe, probes)
				for i := range ps {
					ps[i] = probe{core.Time(r.Intn(horizon)), core.Time(r.Intn(200) + 1), r.Intn(m) + 1}
				}
				// ask answers every probe and checks each start against the
				// breakpoints.
				ask := func() ([]core.Time, []bool) {
					isBreak := map[core.Time]bool{}
					for _, bp := range idx.Breakpoints() {
						isBreak[bp] = true
					}
					at, ok := make([]core.Time, probes), make([]bool, probes)
					for i, p := range ps {
						at[i], ok[i] = idx.FindSlot(p.ready, p.q, p.dur)
						if ok[i] && at[i] != p.ready && !isBreak[at[i]] {
							t.Fatalf("seed %d: FindSlot(%v,%d,%v) = %v, neither the ready time nor a breakpoint of %v",
								seed, p.ready, p.q, p.dur, at[i], idx)
						}
					}
					return at, ok
				}
				at, ok := ask()
				for len(live) > 0 {
					k := r.Intn(len(live))
					w := live[k]
					what := "release"
					if w.d != core.Infinity && w.d > 1 && r.Intn(2) == 0 {
						// Shorten: give back the tail, keep the head booked.
						what = "shortening"
						keep := core.Time(r.Intn(int(w.d-1)) + 1)
						live[k].d = keep
						w.s, w.d = w.s+keep, w.d-keep
					} else {
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
					}
					if err := idx.Release(w.s, w.d, w.q); err != nil {
						t.Fatalf("seed %d: %s of [%v,+%v)x%d: %v", seed, what, w.s, w.d, w.q, err)
					}
					at2, ok2 := ask()
					for i, p := range ps {
						if ok[i] && (!ok2[i] || at2[i] > at[i]) {
							t.Fatalf("seed %d: after the %s of [%v,+%v)x%d FindSlot(%v,%d,%v) went from %v to %v,%v",
								seed, what, w.s, w.d, w.q, p.ready, p.q, p.dur, at[i], at2[i], ok2[i])
						}
					}
					at, ok = at2, ok2
				}
				if idx.NumSegments() != 1 {
					t.Fatalf("seed %d: everything released but the profile is %v", seed, idx)
				}
			}
		})
	}
}
