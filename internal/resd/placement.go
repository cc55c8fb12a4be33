package resd

import (
	"fmt"
	"sync/atomic"
)

// placement orders the shards a Reserve request should try. The returned
// order is a preference list: the service walks it until a shard admits.
// The policies read only the shards' atomic load summaries, never the
// combiner-owned state, so routing is lock-free and may be (harmlessly)
// stale: the routed shard re-validates when it serves the request. A
// shard's total load is read through shard.load and nothing else — the
// area it has committed plus the area on its way there — so concurrent
// callers see each other's choices. A concrete type, not an interface, so
// that order's result buffer can live on the caller's stack.
type placement struct {
	policy string // one of Placements()
	state  uint64 // p2c: splitmix64 state advanced atomically per request
}

// Placements lists the routing policies PlacementByName accepts.
func Placements() []string { return []string{"first-fit", "least-loaded", "p2c", "pressure"} }

// placementByName builds the named policy. seed feeds p2c's sampling.
func placementByName(name string, seed uint64) (*placement, error) {
	for _, known := range Placements() {
		if name == known {
			return &placement{policy: name, state: seed}, nil
		}
	}
	return nil, fmt.Errorf("resd: unknown placement %q (available: %v)", name, Placements())
}

// stackShards is how many shards an order call serves from the stack
// (Admit's result buffer, the sorting policies' keys); services with
// more pay one allocation per request for each.
const stackShards = 16

// order appends the preference list to out, which the caller passes empty
// — backed by a [stackShards]int on its own stack to keep the call
// allocation-free. ten is the requesting tenant (already normalised,
// never empty); tenant-blind policies ignore it.
func (p *placement) order(shards []*shard, ten string, out []int) []int {
	switch p.policy {
	case "first-fit":
		return firstFit(shards, out)
	case "least-loaded":
		return leastLoaded(shards, out)
	case "p2c":
		return p.powerOfTwo(shards, out)
	default:
		return pressure(shards, ten, out)
	}
}

// firstFit scans shards in index order: deterministic and deliberately
// naive — all load lands on the lowest-index shard that admits, which for
// earliest-fit admission is almost always shard 0. It is the baseline the
// balancing policies are measured against.
func firstFit(shards []*shard, out []int) []int {
	for i := range shards {
		out = append(out, i)
	}
	return out
}

// leastLoaded routes to the shard with the smallest load, breaking ties
// by index; the rest follow in load order as fallbacks.
func leastLoaded(shards []*shard, out []int) []int {
	var buf [stackShards]shardKey
	keys := buf[:0]
	for _, sh := range shards {
		keys = append(keys, shardKey{load: sh.load()})
	}
	return rank(keys, out)
}

// pressure routes by per-tenant shard pressure: the requesting tenant's
// committed area on each shard (read from the shards' lock-free
// per-tenant mirrors), lowest first, with the shard's load and then index
// breaking ties. The first key is published per turn and does not see what
// is in flight: two concurrent admissions of one tenant may still pick the
// same shard. With per-shard budget shares equal — which is how
// the quota registry resolves budgets, globally, with no per-shard skew —
// ordering by the tenant's usage-to-budget ratio on a shard and ordering
// by its raw usage there coincide, so the policy needs no registry
// handle and works with quotas disabled too. The effect is quota-aware
// placement: each tenant's own footprint is spread across partitions, so
// a zipf-heavy tenant saturates no single shard while small tenants are
// routed around the hot spots the heavy hitters made.
func pressure(shards []*shard, ten string, out []int) []int {
	var buf [stackShards]shardKey
	keys := buf[:0]
	for _, sh := range shards {
		keys = append(keys, shardKey{mine: sh.tenantArea(ten), load: sh.load()})
	}
	return rank(keys, out)
}

// shardKey is one shard's sort key, read once per request so the order is
// taken over a consistent snapshot of the (concurrently moving) loads:
// the tenant's own area first, the shard's load second.
type shardKey struct{ mine, load int64 }

func (k shardKey) less(o shardKey) bool {
	if k.mine != o.mine {
		return k.mine < o.mine
	}
	return k.load < o.load
}

// rank appends to out (passed empty) the shard indices ordered by key,
// ties keeping the lower index: a stable insertion sort straight into
// the result, which for the handful of shards a service has beats
// sort.SliceStable's reflection swapper and allocates nothing.
func rank(keys []shardKey, out []int) []int {
	for i := range keys {
		out = append(out, i)
		j := i
		for ; j > 0 && keys[i].less(keys[out[j-1]]); j-- {
			out[j] = out[j-1]
		}
		out[j] = i
	}
	return out
}

// next advances the shared state and returns a splitmix64 output. Atomic
// add keeps the sampler lock-free under concurrent Reserves; the exact
// sequence interleaving is irrelevant, only uniformity matters.
func (p *placement) next() uint64 {
	z := atomic.AddUint64(&p.state, 0x9E3779B97F4A7C15)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// powerOfTwo is power-of-two-choices on free area: sample two distinct
// shards, prefer the one with the smaller load (= larger free area over
// any common horizon). O(1) loads read per request, and by the
// classic balls-into-bins result the max load stays within
// O(log log S) of the mean — almost all the benefit of least-loaded
// without scanning every shard.
func (p *placement) powerOfTwo(shards []*shard, out []int) []int {
	n := len(shards)
	if n == 1 {
		return append(out, 0)
	}
	r := p.next()
	a := int(r % uint64(n))
	b := int((r >> 32) % uint64(n-1))
	if b >= a {
		b++
	}
	if shards[b].load() < shards[a].load() {
		a, b = b, a
	}
	out = append(out, a, b)
	for i := 0; i < n; i++ {
		if i != a && i != b {
			out = append(out, i)
		}
	}
	return out
}
