package resd

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// TestStressConservation hammers a sharded service from many goroutines
// with a mixed Reserve/Cancel/Query stream and asserts conservation of
// committed capacity: every admission the clients still hold at the end is
// accounted for in the shards' books, and once the clients cancel
// everything, every shard's index returns to the pristine constant-m
// profile. Run under -race this also exercises the confinement claims of
// the combiners, the shards' locks and the atomic load summaries.
func TestStressConservation(t *testing.T) {
	const (
		shards     = 4
		m          = 64
		goroutines = 8
		opsPerG    = 400
		horizon    = 100000
	)
	for _, backend := range []string{"array", "tree"} {
		t.Run(backend, func(t *testing.T) {
			s := mustNew(t, Config{Shards: shards, M: m, Alpha: 0.25, Backend: backend, Batch: 16})
			held := make([][]Reservation, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r := rng.NewStream(7, uint64(g))
					for i := 0; i < opsPerG; i++ {
						switch {
						case r.Bool(0.2) && len(held[g]) > 0:
							k := r.Intn(len(held[g]))
							resv := held[g][k]
							held[g] = append(held[g][:k], held[g][k+1:]...)
							if err := s.Cancel(resv.ID); err != nil {
								t.Errorf("cancel %#x: %v", uint64(resv.ID), err)
								return
							}
						case r.Bool(0.15):
							if _, err := s.Query(core.Time(r.Int63n(horizon))); err != nil {
								t.Errorf("query: %v", err)
								return
							}
						default:
							ready := core.Time(r.Int63n(horizon))
							q := r.IntRange(1, m/2)
							dur := core.Time(r.Int63Range(1, 200))
							resv, err := s.Admit(Request{Ready: ready, Q: q, Dur: dur, Deadline: NoDeadline})
							if err != nil {
								t.Errorf("reserve(q=%d): %v", q, err)
								return
							}
							if resv.Start < ready || resv.Procs != q || resv.Dur != dur {
								t.Errorf("bad admission %+v for ready=%v q=%d dur=%v", resv, ready, q, dur)
								return
							}
							held[g] = append(held[g], resv)
						}
					}
				}(g)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			// Mid-state conservation: the books must account for
			// exactly the reservations the clients still hold.
			var wantActive int
			var wantArea int64
			for g := range held {
				wantActive += len(held[g])
				for _, resv := range held[g] {
					wantArea += int64(resv.Dur) * int64(resv.Procs)
				}
			}
			var gotActive int
			var gotArea int64
			for _, st := range s.Stats() {
				gotActive += st.Active
				gotArea += st.CommittedArea
			}
			if gotActive != wantActive || gotArea != wantArea {
				t.Fatalf("books disagree with clients: active %d vs %d, area %d vs %d",
					gotActive, wantActive, gotArea, wantArea)
			}

			// Drain and verify every shard returns to constant m.
			for g := range held {
				for _, resv := range held[g] {
					if err := s.Cancel(resv.ID); err != nil {
						t.Fatalf("drain cancel: %v", err)
					}
				}
			}
			for i := 0; i < shards; i++ {
				snap, err := s.Snapshot(i)
				if err != nil {
					t.Fatal(err)
				}
				if snap.NumSegments() != 1 || snap.AvailableAt(0) != m {
					t.Fatalf("shard %d not pristine after full drain: %v", i, snap)
				}
			}
			for i, st := range s.Stats() {
				if st.Active != 0 || st.CommittedArea != 0 || st.Admitted != st.Cancelled {
					t.Fatalf("shard %d books not balanced: %+v", i, st)
				}
			}
		})
	}
}

// TestStressConcurrentSnapshots interleaves snapshots and queries with
// writes so -race sees readers racing the combiners through every public
// path, each reader then owning the clone it was handed.
func TestStressConcurrentSnapshots(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, M: 16})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.NewStream(11, uint64(g))
			for i := 0; i < 150; i++ {
				if g%2 == 0 {
					resv, err := s.Admit(Request{Ready: core.Time(r.Int63n(5000)), Q: r.IntRange(1, 8), Dur: core.Time(r.Int63Range(1, 50)), Deadline: NoDeadline})
					if err != nil {
						t.Errorf("reserve: %v", err)
						return
					}
					if r.Bool(0.5) {
						if err := s.Cancel(resv.ID); err != nil {
							t.Errorf("cancel: %v", err)
							return
						}
					}
				} else {
					snap, err := s.Snapshot(g % 2)
					if err != nil {
						t.Errorf("snapshot: %v", err)
						return
					}
					if snap.M() != 16 || snap.FreeArea(0, 5000) < 0 {
						t.Errorf("snapshot inconsistent: %v", snap)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
