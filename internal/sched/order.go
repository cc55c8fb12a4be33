package sched

import (
	"repro/internal/core"
	"repro/internal/rng"
)

// Order produces the priority list used by a list scheduler: a permutation
// of job indices, highest priority first. Orders must be deterministic
// functions of the instance (RandomOrder carries its own seeded generator
// state in the closure, reseeded per call for reproducibility).
type Order struct {
	// Name identifies the rule in experiment tables (e.g. "fifo", "lpt").
	Name string
	// Indices returns the job indices in priority order.
	Indices func(inst *core.Instance) []int
}

// identity returns 0..n-1.
func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// sortBy returns the job indices in increasing order of key, with ties
// broken by instance position so orders are total and deterministic. A
// descending rule passes ^k, which reverses the order of every int64
// (where -k overflows at math.MinInt64).
//
// It is a stable LSD radix sort: one O(n) counting pass per key byte,
// skipping the bytes every key shares, so a key that fits in 16 bits costs
// two passes. The sign bit is flipped so that unsigned byte order is signed
// key order; stability over the identity permutation gives the tie-break.
func sortBy(inst *core.Instance, key func(*core.Job) int64) []int {
	n := len(inst.Jobs)
	keys, idx := make([]uint64, 2*n), make([]int, 2*n)
	same, varies := ^uint64(0), uint64(0) // bits every key has, bits any key has
	for i := range inst.Jobs {
		k := uint64(key(&inst.Jobs[i])) ^ 1<<63
		keys[i], idx[i] = k, i
		same, varies = same&k, varies|k
	}
	src, dst, from, to := keys[:n], keys[n:], idx[:n:n], idx[n:]
	for shift := 0; shift < 64; shift += 8 {
		if (same^varies)>>shift&0xff == 0 {
			continue
		}
		var at [256]int
		for _, k := range src {
			at[k>>shift&0xff]++
		}
		sum := 0
		for b := range at {
			at[b], sum = sum, sum+at[b]
		}
		for i, k := range src {
			b := k >> shift & 0xff
			dst[at[b]], to[at[b]] = k, from[i]
			at[b]++
		}
		src, dst, from, to = dst, src, to, from
	}
	return from
}

// FIFO preserves instance (submission) order. This is the order used by the
// paper's constructions: "the list ordered by increasing i".
var FIFO = Order{Name: "fifo", Indices: func(inst *core.Instance) []int {
	return identity(len(inst.Jobs))
}}

// LPT orders by decreasing processing time (the conclusion's suggested
// priority: "sorting the jobs by decreasing durations").
var LPT = Order{Name: "lpt", Indices: func(inst *core.Instance) []int {
	return sortBy(inst, func(j *core.Job) int64 { return ^int64(j.Len) })
}}

// SPT orders by increasing processing time.
var SPT = Order{Name: "spt", Indices: func(inst *core.Instance) []int {
	return sortBy(inst, func(j *core.Job) int64 { return int64(j.Len) })
}}

// WidestFirst orders by decreasing processor requirement.
var WidestFirst = Order{Name: "widest", Indices: func(inst *core.Instance) []int {
	return sortBy(inst, func(j *core.Job) int64 { return ^int64(j.Procs) })
}}

// NarrowestFirst orders by increasing processor requirement.
var NarrowestFirst = Order{Name: "narrowest", Indices: func(inst *core.Instance) []int {
	return sortBy(inst, func(j *core.Job) int64 { return int64(j.Procs) })
}}

// MaxWorkFirst orders by decreasing area p*q.
var MaxWorkFirst = Order{Name: "maxwork", Indices: func(inst *core.Instance) []int {
	return sortBy(inst, func(j *core.Job) int64 { return ^j.Work() })
}}

// RandomOrder returns a rule that shuffles the list with the given seed.
// Each call to Indices reseeds, so the same Order value always produces the
// same permutation for the same instance size.
func RandomOrder(seed uint64) Order {
	return Order{
		Name: "random",
		Indices: func(inst *core.Instance) []int {
			r := rng.New(seed)
			return r.Perm(len(inst.Jobs))
		},
	}
}

// Orders lists the deterministic rules, used by ablation experiments.
func Orders() []Order {
	return []Order{FIFO, LPT, SPT, WidestFirst, NarrowestFirst, MaxWorkFirst}
}
