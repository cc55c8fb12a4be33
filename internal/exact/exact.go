// Package exact computes optimal makespans for small RESASCHEDULING
// instances. It is the ground truth against which the experiments measure
// the performance ratios of the paper's algorithms.
//
// Two solvers are provided:
//
//   - Solve: a branch-and-bound over job permutations with
//     earliest-feasible placement (the "serial schedule generation scheme"
//     of the RCPSP literature). For any feasible schedule S, greedily
//     placing jobs in S's start-time order yields start times <= S's
//     (exchange argument: when job i is placed, every earlier job of the
//     order occupies, after time S.start(i), a subset of what it occupied
//     in S), so the scheme enumerated over all orders reaches an optimum.
//     Identical jobs are collapsed into classes and the search prunes with
//     availability-aware lower bounds.
//
//   - SolveM1: an exact O(2^n · n) dynamic program for single-machine
//     instances (the shape of the Theorem 1 reduction): the state is the
//     set of scheduled jobs, the value the earliest feasible completion
//     frontier, which is sufficient because later placements are monotone
//     in the frontier.
package exact

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/lower"
	"repro/internal/profile"
	"repro/internal/sched"
)

// Errors returned by the solvers.
var (
	// ErrBudget reports that the node budget was exhausted before the
	// search completed; the result is still a valid upper bound.
	ErrBudget = errors.New("exact: node budget exhausted")
	// ErrTooLarge reports an instance beyond hard solver limits.
	ErrTooLarge = errors.New("exact: instance too large for exact solver")
	// ErrUnschedulable reports that some job can never run.
	ErrUnschedulable = errors.New("exact: job can never be scheduled")
)

// Result is the outcome of an exact solve.
type Result struct {
	// Schedule is the best schedule found.
	Schedule *core.Schedule
	// Cmax is its makespan.
	Cmax core.Time
	// Optimal reports whether Cmax was proven optimal (search completed).
	Optimal bool
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int64
}

// Solver is a configurable branch-and-bound solver. The disable* switches
// turn off individual pruning devices; only the ablation benchmarks
// (BenchmarkExactAblation) set them, to quantify what each device buys —
// results are identical with or without them, only node counts change.
type Solver struct {
	// MaxNodes caps the search; 0 means DefaultMaxNodes.
	MaxNodes int64
	// disableClassCollapse branches on every job individually instead of
	// once per (procs, len) equivalence class.
	disableClassCollapse bool
	// disableAreaBound drops the remaining-work area bound from node
	// pruning (the per-class earliest-completion bound is kept).
	disableAreaBound bool
	// disableJobFitBound drops the per-class earliest-completion bound
	// from node pruning (the area bound is kept).
	disableJobFitBound bool
}

// DefaultMaxNodes is the default node budget for Solve.
const DefaultMaxNodes = 2_000_000

// jobClass groups identical jobs: interchangeable jobs are branched once.
type jobClass struct {
	procs int
	len   core.Time
	idxs  []int // instance job indices in this class
	left  int   // not yet placed
}

// bbState carries the mutable search state.
type bbState struct {
	inst     *core.Instance
	tl       *profile.Timeline
	classes  []jobClass
	starts   []core.Time
	remWork  int64
	partCmax core.Time
	nodes    int64
	maxNodes int64
	bestCmax core.Time
	best     []core.Time
	budget   bool    // budget exhausted
	sv       *Solver // its disable switches
}

// Solve finds the optimal makespan of the instance (subject to the node
// budget). Initial incumbents come from the sched package's heuristics, so
// even a budget-exhausted result is at least as good as every list policy.
func (sv *Solver) Solve(inst *core.Instance) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("exact: %w", err)
	}
	maxNodes := sv.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}

	// Incumbent from heuristics.
	var bestS *core.Schedule
	for _, s := range []sched.Scheduler{
		sched.NewLSRC(sched.FIFO), sched.NewLSRC(sched.LPT),
		sched.NewLSRC(sched.WidestFirst), sched.Conservative{},
	} {
		cand, err := s.Schedule(inst)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnschedulable, err)
		}
		if bestS == nil || cand.Makespan() < bestS.Makespan() {
			bestS = cand
		}
	}
	lb := lower.Best(inst)
	res := &Result{Schedule: bestS, Cmax: bestS.Makespan(), Optimal: true}
	if lb >= res.Cmax || len(inst.Jobs) == 0 {
		return res, nil
	}

	st := &bbState{
		inst:     inst,
		tl:       profile.MustFromReservations(inst.M, inst.Res),
		starts:   make([]core.Time, len(inst.Jobs)),
		remWork:  inst.TotalWork(),
		maxNodes: maxNodes,
		bestCmax: res.Cmax,
		best:     append([]core.Time(nil), bestS.Start...),
		sv:       sv,
	}
	for i := range st.starts {
		st.starts[i] = core.Unscheduled
	}
	st.classes = classify(inst, sv.disableClassCollapse)
	st.dfs()

	s := core.NewSchedule(inst)
	s.Algorithm = "exact-bb"
	copy(s.Start, st.best)
	res.Schedule = s
	res.Cmax = st.bestCmax
	res.Nodes = st.nodes
	res.Optimal = !st.budget
	if st.budget {
		return res, ErrBudget
	}
	return res, nil
}

// classify groups jobs by (procs, len), widest-longest first so strong
// incumbents appear early. With noCollapse every job forms its own class
// (exponentially more branching on duplicate-heavy instances; used only by
// the ablation).
func classify(inst *core.Instance, noCollapse bool) []jobClass {
	type key struct {
		q   int
		p   core.Time
		idx int // distinct per job when noCollapse
	}
	byKey := make(map[key]*jobClass)
	var order []key
	for i, j := range inst.Jobs {
		k := key{q: j.Procs, p: j.Len}
		if noCollapse {
			k.idx = i + 1
		}
		c, ok := byKey[k]
		if !ok {
			c = &jobClass{procs: j.Procs, len: j.Len}
			byKey[k] = c
			order = append(order, k)
		}
		c.idxs = append(c.idxs, i)
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := byKey[order[a]], byKey[order[b]]
		if wa, wb := int64(ca.procs)*int64(ca.len), int64(cb.procs)*int64(cb.len); wa != wb {
			return wa > wb
		}
		if ca.len != cb.len {
			return ca.len > cb.len
		}
		return ca.procs > cb.procs
	})
	out := make([]jobClass, len(order))
	for i, k := range order {
		out[i] = *byKey[k]
		out[i].left = len(out[i].idxs)
	}
	return out
}

// nodeLB computes a lower bound for the current node: committed partial
// makespan, remaining-work area on the current timeline, and per-class
// earliest completion.
func (st *bbState) nodeLB() core.Time {
	lb := st.partCmax
	if st.remWork > 0 {
		if !st.sv.disableAreaBound {
			if t, ok := st.tl.FirstTimeWithFreeArea(st.remWork); !ok {
				return core.Infinity
			} else if t > lb {
				lb = t
			}
		}
		if !st.sv.disableJobFitBound {
			for i := range st.classes {
				c := &st.classes[i]
				if c.left == 0 {
					continue
				}
				s, ok := st.tl.FindSlot(0, c.procs, c.len)
				if !ok {
					return core.Infinity
				}
				if end := s + c.len; end > lb {
					lb = end
				}
			}
		}
	}
	return lb
}

// dfs explores placements of one job per recursion level.
func (st *bbState) dfs() {
	if st.budget {
		return
	}
	st.nodes++
	if st.nodes > st.maxNodes {
		st.budget = true
		return
	}
	if st.remWork == 0 {
		if st.partCmax < st.bestCmax {
			st.bestCmax = st.partCmax
			copy(st.best, st.starts)
		}
		return
	}
	if st.nodeLB() >= st.bestCmax {
		return
	}
	for ci := range st.classes {
		c := &st.classes[ci]
		if c.left == 0 {
			continue
		}
		s, ok := st.tl.FindSlot(0, c.procs, c.len)
		if !ok {
			continue
		}
		end := s + c.len
		if end >= st.bestCmax {
			// Placing this class's next job already meets the incumbent:
			// the subtree cannot strictly improve via this branch IF the
			// class must be placed eventually anyway — but another class
			// might finish everything earlier; just skip this branch.
			continue
		}
		idx := c.idxs[len(c.idxs)-c.left]
		if err := st.tl.Commit(s, c.len, c.procs); err != nil {
			panic(fmt.Sprintf("exact: internal commit: %v", err))
		}
		c.left--
		st.starts[idx] = s
		st.remWork -= int64(c.procs) * int64(c.len)
		prevCmax := st.partCmax
		if end > st.partCmax {
			st.partCmax = end
		}

		st.dfs()

		st.partCmax = prevCmax
		st.remWork += int64(c.procs) * int64(c.len)
		st.starts[idx] = core.Unscheduled
		c.left++
		if err := st.tl.Release(s, c.len, c.procs); err != nil {
			panic(fmt.Sprintf("exact: internal release: %v", err))
		}
		if st.budget {
			return
		}
	}
}

// Solve with the default budget.
func Solve(inst *core.Instance) (*Result, error) {
	return (&Solver{}).Solve(inst)
}

// maxM1Jobs caps the DP's bitmask width.
const maxM1Jobs = 22

// SolveM1 solves single-machine instances exactly via subset DP. The state
// dp[mask] is the earliest completion frontier over all orders of the jobs
// in mask with greedy earliest placement; monotonicity of FindSlot in its
// ready argument makes the frontier a sufficient statistic.
func SolveM1(inst *core.Instance) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("exact: %w", err)
	}
	if inst.M != 1 {
		return nil, fmt.Errorf("%w: SolveM1 needs m=1, got %d", ErrTooLarge, inst.M)
	}
	n := len(inst.Jobs)
	if n > maxM1Jobs {
		return nil, fmt.Errorf("%w: %d jobs > %d", ErrTooLarge, n, maxM1Jobs)
	}
	s := core.NewSchedule(inst)
	s.Algorithm = "exact-m1"
	if n == 0 {
		return &Result{Schedule: s, Cmax: 0, Optimal: true}, nil
	}
	tl := profile.MustFromReservations(1, inst.Res)

	size := 1 << n
	dp := make([]core.Time, size)
	choice := make([]int8, size) // job added last on the optimal path
	startAt := make([]core.Time, size)
	for i := range dp {
		dp[i] = core.Infinity
	}
	dp[0] = 0
	for mask := 0; mask < size; mask++ {
		if dp[mask] == core.Infinity {
			continue
		}
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				continue
			}
			p := inst.Jobs[j].Len
			st, ok := tl.FindSlot(dp[mask], 1, p)
			if !ok {
				continue
			}
			comp := st + p
			next := mask | 1<<j
			if comp < dp[next] {
				dp[next] = comp
				choice[next] = int8(j)
				startAt[next] = st
			}
		}
	}
	full := size - 1
	if dp[full] == core.Infinity {
		return nil, fmt.Errorf("%w: no completion for full set", ErrUnschedulable)
	}
	// Reconstruct: walk back the chosen jobs, recomputing their starts.
	for mask := full; mask != 0; {
		j := int(choice[mask])
		s.SetStart(j, startAt[mask])
		mask ^= 1 << j
	}
	return &Result{Schedule: s, Cmax: dp[full], Optimal: true, Nodes: int64(size)}, nil
}
