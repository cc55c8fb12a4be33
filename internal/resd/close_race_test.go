package resd

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
)

// TestCloseRacesInFlightReserve closes a service while many goroutines
// have Reserve calls in flight and asserts the shutdown contract: every
// call returns either a valid reservation or ErrClosed — never a torn
// result, never a hang. Run under -race this also checks that the quit
// broadcast and the shard event loops shut down without unsynchronised
// access to shard state.
func TestCloseRacesInFlightReserve(t *testing.T) {
	const (
		shards     = 4
		m          = 64
		goroutines = 16
		horizon    = 1 << 20
	)
	for _, backend := range []string{"array", "tree"} {
		t.Run(backend, func(t *testing.T) {
			svc, err := New(Config{Shards: shards, M: m, Backend: backend, Batch: 8})
			if err != nil {
				t.Fatal(err)
			}
			// Closers and reservers race freely; stop reserving only once
			// Close has been observed to return.
			closed := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r := rng.NewStream(31, uint64(g))
					for i := 0; ; i++ {
						ready := core.Time(r.Int63n(horizon))
						q := r.IntRange(1, m)
						dur := core.Time(r.Int63Range(1, 100))
						resv, err := svc.Admit(Request{Ready: ready, Q: q, Dur: dur, Deadline: NoDeadline})
						switch {
						case err == nil:
							if resv.Start < ready || resv.Procs != q || resv.Dur != dur {
								t.Errorf("torn reservation %+v for (ready=%v q=%d dur=%v)", resv, ready, q, dur)
								return
							}
						case errors.Is(err, ErrClosed):
							return
						default:
							t.Errorf("Reserve returned %v, want success or ErrClosed", err)
							return
						}
						select {
						case <-closed:
							return
						default:
						}
					}
				}(g)
			}
			// Let the reservers build up in-flight traffic, then pull the rug.
			time.Sleep(2 * time.Millisecond)
			svc.Close()
			close(closed)

			// A watchdog distinguishes "a Reserve call hung at shutdown"
			// from ordinary slowness: the whole drain should take
			// microseconds, so seconds means a lost reply.
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("Reserve calls still blocked 30s after Close: shutdown lost a reply")
			}

			if _, err := svc.Admit(Request{Q: 1, Dur: 1, Deadline: NoDeadline}); !errors.Is(err, ErrClosed) {
				t.Fatalf("Reserve after Close = %v, want ErrClosed", err)
			}
		})
	}
}
