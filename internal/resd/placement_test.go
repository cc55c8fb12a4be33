package resd

import (
	"sort"
	"testing"

	"repro/internal/rng"
)

// sliceStableOrder is the order the placements produced before rank
// replaced sort.SliceStable; it stays here as the oracle.
func sliceStableOrder(keys []shardKey) []int {
	out := make([]int, len(keys))
	for i := range out {
		out[i] = i
	}
	sort.SliceStable(out, func(a, b int) bool { return keys[out[a]].less(keys[out[b]]) })
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
		keys := make([]shardKey, n)
		for i := range keys {
			keys[i] = shardKey{mine: r.Int63n(spread), load: r.Int63n(spread)}
		}
		got, want := rank(keys, nil), sliceStableOrder(keys)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d, keys %v: rank = %v, SliceStable = %v", trial, keys, got, want)
			}
		}
	}
}

// TestPlacementOrder runs both sorting policies over real shards: the
// order follows the published loads, equal loads keep index order, and a
// call into a stack buffer allocates nothing.
func TestPlacementOrder(t *testing.T) {
	svc, err := New(Config{Shards: 4, M: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i, load := range []int64{30, 10, 30, 10} {
		svc.shards[i].committedArea.Store(load)
	}
	svc.shards[3].cell("a").area.Store(5) // tenant a already sits on shard 3
	cases := []struct {
		policy string
		want   []int
	}{
		{"least-loaded", []int{1, 3, 0, 2}},
		{"pressure", []int{1, 0, 2, 3}},
	}
	for _, c := range cases {
		p, err := placementByName(c.policy, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := p.order(svc.shards, "a", nil)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s order = %v, want %v", c.policy, got, c.want)
				break
			}
		}
		if n := testing.AllocsPerRun(200, func() {
			var buf [stackShards]int
			p.order(svc.shards, "a", buf[:0])
		}); n != 0 {
			t.Errorf("%s order allocates %v times per call, want 0", c.policy, n)
		}
	}
}

// TestPressurePlacementSpreadsTenants pins the quota-aware placement
// policy: each tenant's own footprint is what routes it, so one tenant's
// pile-up never captures another tenant's placement.
func TestPressurePlacementSpreadsTenants(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, M: 8, Placement: "pressure"})
	if s.Placement() != "pressure" {
		t.Fatalf("placement = %q", s.Placement())
	}
	// Tenant a alternates shards: its own area is the primary key.
	r1, err := s.Admit(Request{Tenant: "a", Q: 2, Dur: 10, Deadline: NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Admit(Request{Tenant: "a", Q: 2, Dur: 10, Deadline: NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Shard == r2.Shard {
		t.Fatalf("tenant a's reservations piled on shard %d", r1.Shard)
	}
	r3, err := s.Admit(Request{Tenant: "a", Q: 2, Dur: 30, Deadline: NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	// a now holds area 20+60 on one side, 20 on the other; shard loads are
	// unequal. A fresh tenant b has no footprint anywhere, so the tie
	// breaks to the less-loaded shard — not wherever a went last.
	lighter := r1.Shard
	if r3.Shard == r1.Shard {
		lighter = r2.Shard
	}
	rb, err := s.Admit(Request{Tenant: "b", Q: 2, Dur: 10, Deadline: NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Shard != lighter {
		t.Fatalf("tenant b routed to shard %d, want the lighter shard %d", rb.Shard, lighter)
	}
}
