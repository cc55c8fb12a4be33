package resd

import (
	"errors"
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

// noneInFlight asserts the quiescent half of shard.load's contract: with
// no Admit under way, no shard carries in-flight area.
func noneInFlight(t *testing.T, s *Service, when string) {
	t.Helper()
	for i, sh := range s.shards {
		if n := sh.inFlight.Load(); n != 0 {
			t.Errorf("%s: shard %d still carries %d in flight", when, i, n)
		}
	}
}

// TestPlacementCountsInFlight: an admission on its way to a shard counts
// against that shard for callers routing meanwhile. Two shards, the first
// lighter by 2; caller A (area 5) is routed there and held inside its
// turn. By published area alone the first shard is still the lighter one,
// and caller B would queue behind A — for as long as A is held, which
// here is until B is back. Counting A's 5, B goes to the other shard and
// returns. The one case is named for the one rule there is, which is
// also the one name Config.Placement still accepts.
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
		if got := s.shards[light].inFlight.Load(); got != 5 {
			t.Errorf("shard %d carries %d in flight while A is inside its turn, want 5", light, got)
		}
		bDone := make(chan Reservation, 1)
		go func() { bDone <- admit("b", 5) }()
		select {
		case b := <-bDone:
			if b.Shard != heavy {
				t.Errorf("caller B admitted on shard %d, want %d", b.Shard, heavy)
			}
		case <-time.After(30 * time.Second):
			t.Error("caller B queued behind A: placement does not see what is in flight")
			defer func() { <-bDone }() // it returns once A is let go
		}
		close(release)
		if a := <-aDone; a.Shard != light {
			t.Errorf("caller A admitted on shard %d, want %d", a.Shard, light)
		}
		if !t.Failed() {
			noneInFlight(t, s, "A and B back")
		}
	})
}

// TestPlacementCountsInFlightRefusedWalk: a request every shard refuses
// carries its area from shard to shard and leaves none behind, and so does
// one a quota stops at the first shard.
func TestPlacementCountsInFlightRefusedWalk(t *testing.T) {
	reg := mustRegistry(t, 1000, tenant.Spec{Tenants: []tenant.TenantSpec{{Name: "tiny", Share: 0.001}}})
	s, err := New(Config{Shards: 3, M: 4, Quotas: reg})
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
			t.Errorf("shard %d refused %d times, want 1: the walk visits every shard", i, st.RejectedDeadline)
		}
	}
	noneInFlight(t, s, "after a walk every shard refused")
	if _, err := s.Admit(Request{Tenant: "tiny", Q: 1, Dur: 5, Deadline: NoDeadline}); !errors.Is(err, ErrQuota) {
		t.Fatalf("Admit over budget = %v, want ErrQuota", err)
	}
	noneInFlight(t, s, "after a quota refusal")
	s.Close()
	if _, err := s.Admit(Request{Q: 1, Dur: 5, Deadline: NoDeadline}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Admit after Close = %v, want ErrClosed", err)
	}
	noneInFlight(t, s, "after ErrClosed")
}

// TestPlacementCountsInFlightNotUnderFsync: where a turn ends in an fsync,
// callers queueing on one shard is the group commit, so load is the
// published area alone; a log that never fsyncs counts like no log.
func TestPlacementCountsInFlightNotUnderFsync(t *testing.T) {
	for _, c := range []struct {
		mode   wal.SyncMode
		counts bool
	}{{"", true}, {wal.SyncNone, true}, {wal.SyncBatch, false}} {
		cfg := Config{M: 8}
		if c.mode != "" {
			cfg.WAL = &wal.Options{Dir: t.TempDir(), Sync: c.mode}
		}
		s := mustNew(t, cfg)
		if _, err := s.Admit(Request{Q: 1, Dur: 10, Deadline: NoDeadline}); err != nil {
			t.Fatal(err)
		}
		sh := s.shards[0]
		sh.inFlight.Add(7)
		want := int64(10)
		if c.counts {
			want += 7
		}
		if got := sh.load(); got != want {
			t.Errorf("sync=%q: load with 10 committed and 7 in flight = %d, want %d", c.mode, got, want)
		}
		sh.inFlight.Add(-7)
	}
}
