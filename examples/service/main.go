// Service walkthrough: run the sharded reservation-admission service
// (internal/resd) in-process, admit a burst of concurrent reservation
// requests under the paper's α rule, watch least-loaded placement spread
// them across cluster partitions, and read back consistent snapshots.
//
// Run with: go run ./examples/service [-shards 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"

	"repro/internal/core"
	"repro/internal/resd"
	"repro/internal/rng"
)

func main() {
	shards := flag.Int("shards", 4, "cluster partitions")
	flag.Parse()

	// A cluster of four 32-processor partitions. α = 1/2 is the paper's
	// §4.2 restriction: every partition keeps ⌊α·m⌋ = 16 processors free
	// of reservations at all times, so the schedulers retain their
	// 2/α-competitive guarantee for the job stream.
	svc, err := resd.New(resd.Config{
		Shards: *shards,
		M:      32,
		Alpha:  0.5,
		// One pre-existing maintenance window per partition, exempt from
		// the α rule (it models capacity already promised elsewhere).
		Pre: []core.Reservation{{ID: 0, Name: "maint", Procs: 8, Start: 100, Len: 50}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	fmt.Printf("service: %d shards × m=%d, α-floor %d\n\n",
		svc.Shards(), svc.M(), svc.Floor())

	// One admission, spelled out. The request asks for 12 processors for
	// 40 ticks at or after t=90; the window [90,130) collides with the
	// maintenance hold (only 32-8=24 free, and 12+16 > 24), so the
	// earliest admissible start is 150, when the hold releases.
	first, err := svc.Admit(resd.Request{Ready: 90, Q: 12, Dur: 40, Deadline: resd.NoDeadline})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Admit(ready=90, q=12, dur=40)   → shard %d, start %v (pushed past the maintenance window)\n\n",
		first.Shard, first.Start)

	// Now a concurrent burst: 8 clients × 25 requests. Every admission is
	// group-committed by whichever caller is serving the owning shard, and
	// each is served on the least-committed shard whose lock is free, the
	// areas read from atomics without asking the shards.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var admitted []resd.Reservation
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.NewStream(7, uint64(c))
			for i := 0; i < 25; i++ {
				ready := core.Time(r.Int63n(2000))
				q := r.IntRange(1, 16) // ≤ m - floor, always admissible
				dur := core.Time(r.Int63Range(5, 60))
				resv, err := svc.Admit(resd.Request{Ready: ready, Q: q, Dur: dur, Deadline: resd.NoDeadline})
				if err != nil {
					log.Fatal(err)
				}
				mu.Lock()
				admitted = append(admitted, resv)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	fmt.Println("per-shard load after the burst:")
	for i, st := range svc.Stats() {
		fmt.Printf("  shard %d: %3d active, committed area %6d, %d batches for %d ops\n",
			i, st.Active, st.CommittedArea, st.Batches, st.Ops)
	}

	// Snapshots are taken by the shard's combiner between requests and come
	// back as a clone the caller owns; any number of goroutines may read
	// it. The α floor is visible in the data: available capacity
	// never drops below 16 anywhere (Pre is exempt, so probe past it).
	snap, err := svc.Snapshot(0)
	if err != nil {
		log.Fatal(err)
	}
	minAvail := svc.M()
	for t := core.Time(200); t < 2100; t += 25 {
		if a := snap.AvailableAt(t); a < minAvail {
			minAvail = a
		}
	}
	fmt.Printf("\nshard 0 snapshot: %d segments; min capacity sampled on [200,2100) = %d (α-floor %d)\n",
		snap.NumSegments(), minAvail, svc.Floor())

	// Cancelling returns capacity; drain half the burst and compare.
	before := svc.Stats()
	for i, resv := range admitted {
		if i%2 == 0 {
			if err := svc.Cancel(resv.ID); err != nil {
				log.Fatal(err)
			}
		}
	}
	after := svc.Stats()
	var bArea, aArea int64
	for i := range before {
		bArea += before[i].CommittedArea
		aArea += after[i].CommittedArea
	}
	fmt.Printf("\ncancelled %d of %d: committed area %d → %d\n",
		(len(admitted)+1)/2, len(admitted), bArea, aArea)

	free, err := svc.Query(2500)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("capacity at t=2500 per shard: %v\n", free)
}
