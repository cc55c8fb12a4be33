package sim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/rng"
)

// naiveGreedyDispatch is GreedyPolicy.Dispatch as it stood before the
// min-width tournament: every queued job is tested with CanPlace.
func naiveGreedyDispatch(now core.Time, queue []Queued, tl profile.CapacityIndex) []int {
	sc := &scratch{idx: tl}
	defer sc.undo()
	var picks []int
	for p, q := range queue {
		if sc.canPlace(now, q.Job.Len, q.Job.Procs) {
			if sc.commit(now, q.Job.Len, q.Job.Procs) != nil {
				continue
			}
			picks = append(picks, p)
		}
	}
	return picks
}

// TestGreedyDispatchMatchesNaive puts the same queue to both passes at a
// random instant of a random booked index, on both backends: the picks
// must be equal, and after the rollback the index must read exactly as it
// did before the call. A failure prints its seed.
func TestGreedyDispatchMatchesNaive(t *testing.T) {
	var picked int
	for seed := uint64(1); seed <= 2000; seed++ {
		for _, backend := range []string{"array", "tree"} {
			r := rng.New(seed)
			m := r.IntRange(1, 64)
			tl, err := profile.NewIndex(backend, m)
			if err != nil {
				t.Fatal(err)
			}
			// Book reservations and running jobs; the ones that do not fit
			// are simply not booked.
			for i, n := 0, r.IntRange(0, 12); i < n; i++ {
				dur := core.Time(r.IntRange(1, 40))
				if r.Intn(6) == 0 {
					dur = core.Infinity
				}
				_ = tl.Commit(core.Time(r.Intn(80)), dur, r.IntRange(1, m))
			}
			queue := make([]Queued, r.IntRange(0, 40))
			for i := range queue {
				queue[i] = Queued{Idx: i, Job: core.Job{ID: i, Procs: r.IntRange(1, m), Len: core.Time(r.IntRange(1, 30))}}
			}
			now := core.Time(r.Intn(100))

			what := fmt.Sprintf("seed %d backend %s", seed, backend)
			before := tl.String()
			got := GreedyPolicy{}.Dispatch(now, queue, tl)
			if after := tl.String(); after != before {
				t.Fatalf("%s: index not restored after Dispatch:\n before %s\n after  %s", what, before, after)
			}
			want := naiveGreedyDispatch(now, queue, tl)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: picks %v, oracle says %v", what, got, want)
			}
			picked += len(got)
		}
	}
	if picked == 0 {
		t.Fatal("generator lost its coverage: nothing was ever picked")
	}
}
