package sched

import (
	"cmp"
	"slices"

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

// sortBy returns indices sorted by the given three-way comparison, with ties
// broken by instance position (the sort is stable) so orders are total and
// deterministic.
func sortBy(inst *core.Instance, compare func(a, b core.Job) int) []int {
	idx := identity(len(inst.Jobs))
	slices.SortStableFunc(idx, func(x, y int) int {
		return compare(inst.Jobs[x], inst.Jobs[y])
	})
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
	return sortBy(inst, func(a, b core.Job) int { return cmp.Compare(b.Len, a.Len) })
}}

// SPT orders by increasing processing time.
var SPT = Order{Name: "spt", Indices: func(inst *core.Instance) []int {
	return sortBy(inst, func(a, b core.Job) int { return cmp.Compare(a.Len, b.Len) })
}}

// WidestFirst orders by decreasing processor requirement.
var WidestFirst = Order{Name: "widest", Indices: func(inst *core.Instance) []int {
	return sortBy(inst, func(a, b core.Job) int { return cmp.Compare(b.Procs, a.Procs) })
}}

// NarrowestFirst orders by increasing processor requirement.
var NarrowestFirst = Order{Name: "narrowest", Indices: func(inst *core.Instance) []int {
	return sortBy(inst, func(a, b core.Job) int { return cmp.Compare(a.Procs, b.Procs) })
}}

// MaxWorkFirst orders by decreasing area p*q.
var MaxWorkFirst = Order{Name: "maxwork", Indices: func(inst *core.Instance) []int {
	return sortBy(inst, func(a, b core.Job) int { return cmp.Compare(b.Work(), a.Work()) })
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
