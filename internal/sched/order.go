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
// broken by instance position so orders are total and deterministic (the
// kernel, core.SortByKey, is stable over the identity permutation). A
// descending rule passes ^k, which reverses the order of every int64
// (where -k overflows at math.MinInt64).
func sortBy(inst *core.Instance, key func(*core.Job) int64) []int {
	idx := identity(len(inst.Jobs))
	core.SortByKey(idx, func(i int) uint64 { return core.SortKey(key(&inst.Jobs[i])) })
	return idx
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
