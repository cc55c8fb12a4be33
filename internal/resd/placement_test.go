package resd

import (
	"errors"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/tenant"
	"repro/internal/wal"
)

// sliceStableOrder is the order placement produced before rank replaced
// sort.SliceStable; it stays here as the oracle.
func sliceStableOrder(keys []int64) []int {
	out := make([]int, len(keys))
	for i := range out {
		out[i] = i
	}
	sort.SliceStable(out, func(a, b int) bool { return keys[out[a]] < keys[out[b]] })
	return out
}

// TestRankMatchesSliceStable checks rank against the old sort on random
// keys drawn from a range small enough that ties are the common case, so
// the lower-index-first tie rule the FCFS-replay and recovery oracles
// depend on is what is being compared.
func TestRankMatchesSliceStable(t *testing.T) {
	r := rng.NewStream(7, 0)
	for trial := 0; trial < 2000; trial++ {
		n := r.IntRange(1, 2*stackShards)
		spread := int64(r.IntRange(1, 6))
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = r.Int63n(spread)
		}
		got, want := rank(keys, nil), sliceStableOrder(keys)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d, keys %v: rank = %v, SliceStable = %v", trial, keys, got, want)
			}
		}
	}
}

// TestPlacementOrder runs order over real shards: it follows the published
// loads, equal loads keep index order, and a call into a stack buffer
// allocates nothing.
func TestPlacementOrder(t *testing.T) {
	svc, err := New(Config{Shards: 4, M: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i, load := range []int64{30, 10, 30, 10} {
		svc.shards[i].committedArea.Store(load)
	}
	want := []int{1, 3, 0, 2}
	got := order(svc.shards, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		var buf [stackShards]int
		order(svc.shards, buf[:0])
	}); n != 0 {
		t.Errorf("order allocates %v times per call, want 0", n)
	}
}

// TestPlacementCountsInFlight: a shard whose lock another caller holds is
// passed over for the next one in rank. Two shards, the first lighter by
// 2; caller A is routed there and held inside its turn, which on a shard
// that does not fsync holds the shard's lock. By committed area alone the
// first shard is still the lighter one, and caller B would wait behind A
// — for as long as A is held, which here is until B is back. Finding that
// lock held, B serves on the other shard and returns. The one case is
// named for the one rule there is, which is also the one name
// Config.Placement still accepts.
func TestPlacementCountsInFlight(t *testing.T) {
	t.Run("least-loaded", func(t *testing.T) {
		var hold atomic.Int64 // the shard whose next turn the hook holds, -1 for none
		hold.Store(-1)
		entered, release := make(chan struct{}), make(chan struct{})
		s := mustNew(t, Config{Shards: 2, M: 8, Placement: "least-loaded", turnHook: func(shard int) {
			if hold.CompareAndSwap(int64(shard), -1) {
				close(entered)
				<-release
			}
		}})
		admit := func(tenant string, dur core.Time) Reservation {
			r, err := s.Admit(Request{Tenant: tenant, Q: 1, Dur: dur, Deadline: NoDeadline})
			if err != nil {
				t.Errorf("admit for %s: %v", tenant, err)
			}
			return r
		}
		// Whichever shard takes the first admission, the second goes to
		// the other: 10 on one side, 12 on the other.
		light, heavy := admit("setup", 10).Shard, admit("setup", 12).Shard
		if light == heavy {
			t.Fatalf("both setup admissions on shard %d", light)
		}
		hold.Store(int64(light))
		aDone := make(chan Reservation, 1)
		go func() { aDone <- admit("a", 5) }()
		select {
		case <-entered:
		case <-time.After(30 * time.Second):
			close(release)
			t.Fatal("caller A never reached the lighter shard")
		}
		bDone := make(chan Reservation, 1)
		go func() { bDone <- admit("b", 5) }()
		select {
		case b := <-bDone:
			if b.Shard != heavy {
				t.Errorf("caller B admitted on shard %d, want %d", b.Shard, heavy)
			}
		case <-time.After(30 * time.Second):
			t.Error("caller B waited behind A: the walk does not pass over a held shard")
			defer func() { <-bDone }() // it returns once A is let go
		}
		close(release)
		if a := <-aDone; a.Shard != light {
			t.Errorf("caller A admitted on shard %d, want %d", a.Shard, light)
		}
	})
}

// TestPlacementCountsInFlightRefusedWalk: a request every shard refuses
// is served once by each of them, in rank order, and a quota refusal, at
// the door or at a shard's charge, and ErrClosed each end the walk where
// they happen.
func TestPlacementCountsInFlightRefusedWalk(t *testing.T) {
	// tiny's budget is 10: a request of area 5 passes the door.
	reg := mustRegistry(t, 1000, tenant.Spec{Tenants: []tenant.TenantSpec{{Name: "tiny", Share: 0.01}}})
	var spend atomic.Int64 // area the next turn charges to tiny from inside it
	s, err := New(Config{Shards: 3, M: 4, Quotas: reg, turnHook: func(int) {
		if a := spend.Swap(0); a != 0 {
			reg.Account("tiny").TryAcquire(a, nil)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // fill every shard at tick 0
		if _, err := s.Admit(Request{Q: 4, Dur: 10, Deadline: NoDeadline}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Admit(Request{Q: 1, Dur: 5, Deadline: 0}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Admit on full shards with deadline 0 = %v, want ErrDeadline", err)
	}
	for i, st := range s.Stats() {
		if st.RejectedDeadline != 1 {
			t.Errorf("shard %d refused %d times, want 1: the walk visits every shard once", i, st.RejectedDeadline)
		}
	}
	turns := func() (n uint64) {
		for _, st := range s.Stats() {
			n += st.Batches
		}
		return n
	}
	rejectedQuota := func() (n uint64) {
		for _, st := range s.Stats() {
			n += st.RejectedQuota
		}
		return n
	}
	before := turns()
	if _, err := s.Admit(Request{Tenant: "tiny", Q: 1, Dur: 20, Deadline: NoDeadline}); !errors.Is(err, ErrQuota) {
		t.Fatalf("Admit over budget = %v, want ErrQuota", err)
	}
	if n, q := turns()-before, rejectedQuota(); n != 0 || q != 1 {
		t.Errorf("a door refusal took %d turns and was counted %d times, want 0 and 1", n, q)
	}
	spend.Store(8) // the first shard's turn leaves tiny 2 of its 10
	before = turns()
	if _, err := s.Admit(Request{Tenant: "tiny", Q: 1, Dur: 5, Deadline: NoDeadline}); !errors.Is(err, ErrQuota) {
		t.Fatalf("Admit over budget at the charge = %v, want ErrQuota", err)
	}
	if n, q := turns()-before, rejectedQuota(); n != 1 || q != 2 {
		t.Errorf("a charge refusal took %d turns and %d refusals were counted, want 1 and 2", n, q)
	}
	// Close shuts the shards one at a time: an admission that meets the
	// first-ranked shard closed stops there, though the others are open.
	s.shards[0].do(request{kind: opClose}, true)
	before = turns()
	if _, err := s.Admit(Request{Q: 1, Dur: 5, Deadline: NoDeadline}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Admit with shard 0 closed = %v, want ErrClosed", err)
	}
	if n := turns() - before; n != 0 {
		t.Errorf("an admission that met a closed shard took %d turns", n)
	}
	s.Close()
}

// TestPlacementCountsInFlightNotUnderFsync: where a turn ends in an fsync,
// callers queueing on one shard is the group commit, so the walk joins the
// first-ranked shard's queue while its combiner is busy, and waits for its
// lock when that is held too (as a combiner holds it to take its queue);
// a log that never fsyncs counts like no log, and a held shard is passed
// over.
func TestPlacementCountsInFlightNotUnderFsync(t *testing.T) {
	for _, mode := range []wal.SyncMode{"", wal.SyncNone, wal.SyncBatch} {
		var hold atomic.Bool
		entered, release := make(chan struct{}), make(chan struct{})
		cfg := Config{Shards: 2, M: 8, turnHook: func(shard int) {
			if shard == 0 && hold.CompareAndSwap(true, false) {
				close(entered)
				<-release
			}
		}}
		if mode != "" {
			cfg.WAL = &wal.Options{Dir: t.TempDir(), Sync: mode}
		}
		s := mustNew(t, cfg)
		admit := func(done chan<- Reservation) {
			r, err := s.Admit(Request{Q: 1, Dur: 10, Deadline: NoDeadline})
			if err != nil {
				t.Errorf("sync=%q: %v", mode, err)
			}
			done <- r
		}
		hold.Store(true)
		aDone, bDone := make(chan Reservation, 1), make(chan Reservation, 1)
		go admit(aDone) // equal loads: shard 0 ranks first
		<-entered
		go admit(bDone)
		if mode == wal.SyncBatch {
			for give := time.Now().Add(30 * time.Second); s.QueueDepths()[0] == 0 && time.Now().Before(give); {
				runtime.Gosched()
			}
			if d := s.QueueDepths(); d[0] != 1 || d[1] != 0 {
				t.Errorf("sync=%q: queue depths %v with shard 0's turn held, want B queued on shard 0", mode, d)
			}
			s.shards[0].mu.Lock()
			cDone := make(chan Reservation, 1)
			go admit(cDone)
			for give := time.Now().Add(30 * time.Second); s.QueueDepths()[0] < 2 && time.Now().Before(give); {
				runtime.Gosched()
			}
			if d := s.QueueDepths(); d[0] != 2 || d[1] != 0 {
				t.Errorf("sync=%q: queue depths %v with shard 0's lock held, want C waiting for it", mode, d)
			}
			s.shards[0].mu.Unlock()
			defer func() {
				if c := <-cDone; c.Shard != 0 {
					t.Errorf("sync=%q: caller C admitted on shard %d, want 0", mode, c.Shard)
				}
			}()
		}
		var b Reservation
		if mode != wal.SyncBatch {
			select {
			case b = <-bDone:
			case <-time.After(30 * time.Second):
				t.Errorf("sync=%q: caller B waited behind the held shard", mode)
			}
		}
		close(release)
		if a := <-aDone; a.Shard != 0 {
			t.Errorf("sync=%q: caller A admitted on shard %d, want 0", mode, a.Shard)
		}
		want := 1
		if mode == wal.SyncBatch {
			b, want = <-bDone, 0
		}
		if b.Shard != want {
			t.Errorf("sync=%q: caller B admitted on shard %d, want %d", mode, b.Shard, want)
		}
	}
}
