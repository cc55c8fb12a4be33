// Package exact computes optimal makespans for small RESASCHEDULING
// instances. It is the ground truth against which the experiments measure
// the performance ratios of the paper's algorithms.
//
// Solve is one search, for any m, over the schedules that place jobs in
// order of their start times, each at the earliest feasible instant no
// earlier than the previous start (the serial schedule generation scheme
// of the RCPSP literature, with a start-order constraint). It loses no
// optimum: take any feasible schedule S and place its jobs in S's start
// order. When job i is placed, every earlier job of the order started no
// later than in S, so after S.start(i) it occupies a subset of what it
// occupied in S; S.start(i) is therefore still free for job i, and the
// greedy start is at most S.start(i) and at least the previous greedy
// start, which is at most the previous job's start in S.
//
// Identical jobs form classes. A state of the search is the multiset of
// classes placed, the last start g, the partial makespan c and the jobs
// still running at g: every later job starts at g or after, so those jobs
// and the reservations are all the profile a state has left. g is moved
// forward to the first instant at which the narrowest class left has
// room, since no later job can start before it, and c is kept at least g,
// which changes no completion's makespan (every job left ends after g).
//
// States are expanded layer by layer, one job per layer. Within a
// multiset, a state A is dropped when another, B, has g_B ≤ g_A and at
// least A's room at every instant from g_A on (c_B ≤ c_A follows): a
// completion of A is a feasible set of starts from B, which the
// start-order argument reaches from B. A state is pruned when a lower
// bound meets the incumbent: its partial makespan, the earliest instant
// by which its room after g covers the work left, or a class's earliest
// completion after g. The incumbent starts as the best of four list
// heuristics.
//
// At m = 1 no job runs past the g it leaves, so every state of a multiset
// holds only its g and c = g, the earliest has the most room, and each
// multiset keeps one state: the search is the subset DP over the
// completion frontier.
package exact

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/sched"
)

// Errors returned by the solver.
var (
	// ErrBudget reports that the state budget was exhausted before the
	// search completed; the result is still a valid upper bound.
	ErrBudget = errors.New("exact: state budget exhausted")
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
	// Nodes is the number of search states expanded.
	Nodes int64
}

// Solver is the exact solver with a state budget.
type Solver struct {
	// MaxNodes caps the states expanded; 0 means DefaultMaxNodes.
	MaxNodes int64
}

// DefaultMaxNodes is the default state budget for Solve.
const DefaultMaxNodes = 2_000_000

// Solve with the default budget.
func Solve(inst *core.Instance) (*Result, error) {
	return (&Solver{}).Solve(inst)
}

// jobClass groups identical jobs: interchangeable jobs are branched once.
type jobClass struct {
	procs int
	len   core.Time
	idxs  []int // instance job indices in this class
}

// run is the processors held by the jobs a state has running at g that
// end at one instant.
type run struct {
	end   core.Time
	procs int
}

// state is a node of the search: placed[i] jobs of class i are placed.
type state struct {
	placed string // one byte per class; the key of the state's multiset
	prev   *state // the state this one was expanded from
	class  int    // class of the job placed last
	start  core.Time
	g, c   core.Time
	work   int64 // area of the jobs left
	runs   []run // by end, ascending; every end is after g
	load   int   // the processors runs hold at g
}

// search holds the instance's classes, the room of the state being
// expanded, and the next layer.
type search struct {
	classes []jobClass
	tl      *profile.Timeline // the reservations' room, less the expanded state's runs
	slots   []core.Time       // per class, the earliest start of its next job
	next    map[string]int    // a multiset's index in buckets and keys
	buckets [][]*state        // the next layer's states, per multiset
	keys    []string
	cand    state  // the child being offered
	placed  []byte // cand's multiset
}

// Solve finds the optimal makespan of the instance (subject to the state
// budget). The incumbent comes from the sched package's heuristics, so
// even a budget-exhausted result is at least as good as every list policy.
func (sv *Solver) Solve(inst *core.Instance) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("exact: %w", err)
	}
	maxNodes := sv.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	var heur *core.Schedule
	for _, s := range []sched.Scheduler{
		sched.NewLSRC(sched.FIFO), sched.NewLSRC(sched.LPT),
		sched.NewLSRC(sched.WidestFirst), sched.Conservative{},
	} {
		cand, err := s.Schedule(inst)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnschedulable, err)
		}
		if heur == nil || cand.Makespan() < heur.Makespan() {
			heur = cand
		}
	}
	return solve(inst, heur, maxNodes)
}

// solve searches for a schedule shorter than heur, or for an optimal one
// when heur is nil (as the tests run it, to check the search unaided).
func solve(inst *core.Instance, heur *core.Schedule, maxNodes int64) (*Result, error) {
	sr := &search{tl: profile.MustFromReservations(inst.M, inst.Res), next: make(map[string]int)}
	byShape := make(map[[2]int64]int)
	for i, j := range inst.Jobs {
		shape := [2]int64{int64(j.Procs), int64(j.Len)}
		k, ok := byShape[shape]
		if !ok || len(sr.classes[k].idxs) == 255 { // a class counts in one byte
			k = len(sr.classes)
			byShape[shape] = k
			sr.classes = append(sr.classes, jobClass{procs: j.Procs, len: j.Len})
		}
		sr.classes[k].idxs = append(sr.classes[k].idxs, i)
	}
	sr.slots = make([]core.Time, len(sr.classes))
	sr.placed = make([]byte, len(sr.classes))

	best, bestCmax, nodes := (*state)(nil), core.Infinity, int64(0)
	if heur != nil {
		bestCmax = heur.Makespan()
	}
	root := &state{placed: string(sr.placed), work: inst.TotalWork()}
	root.g, _ = sr.tl.FindSlot(0, sr.narrowest(), 1)
	root.c = root.g
	layer := []*state{root}
	var err error
	for left := len(inst.Jobs); left > 0 && err == nil; left-- {
		for _, st := range layer {
			if nodes++; nodes > maxNodes {
				err = ErrBudget
				break
			}
			sr.hold(st, true)
			if sr.expand(st) < bestCmax {
				for i, s := range sr.slots {
					if s < 0 {
						continue
					}
					if left > 1 {
						sr.offer(st, i, s)
					} else if end := max(st.c, s+sr.classes[i].len); end < bestCmax {
						best, bestCmax = &state{prev: st, class: i, start: s}, end
					}
				}
			}
			sr.hold(st, false)
		}
		layer = layer[:0]
		for _, b := range sr.buckets {
			layer = append(layer, b...)
		}
		clear(sr.next)
		sr.buckets, sr.keys = sr.buckets[:0], sr.keys[:0]
	}

	res := &Result{Schedule: heur, Cmax: bestCmax, Optimal: err == nil, Nodes: min(nodes, maxNodes)}
	if best != nil {
		res.Schedule = core.NewSchedule(inst)
		res.Schedule.Algorithm = "exact"
		next := make([]int, len(sr.classes))
		for st := best; st.prev != nil; st = st.prev {
			res.Schedule.SetStart(sr.classes[st.class].idxs[next[st.class]], st.start)
			next[st.class]++
		}
	}
	return res, err
}

// hold commits st's running jobs to sr.tl from st.g on, or releases them.
func (sr *search) hold(st *state, commit bool) {
	for _, r := range st.runs {
		sr.apply(st.g, r.end-st.g, r.procs, commit)
	}
}

// apply commits q processors on [start, start+dur) to sr.tl, or releases
// them.
func (sr *search) apply(start, dur core.Time, q int, commit bool) {
	f := sr.tl.Release
	if commit {
		f = sr.tl.Commit
	}
	if err := f(start, dur, q); err != nil {
		panic(fmt.Sprintf("exact: internal: %v", err))
	}
}

// narrowest returns the fewest processors a class sr.placed leaves needs.
func (sr *search) narrowest() int {
	need := math.MaxInt
	for i, c := range sr.classes {
		if int(sr.placed[i]) < len(c.idxs) {
			need = min(need, c.procs)
		}
	}
	return need
}

// expand fills sr.slots with each class's earliest start from st.g on
// (-1 when none is left) and returns a lower bound on every completion of
// st (core.Infinity when a class left never fits). st's runs are held.
func (sr *search) expand(st *state) core.Time {
	lb, ok := sr.tl.FirstTimeWithFreeArea(st.work + sr.tl.FreeArea(0, st.g))
	if !ok {
		return core.Infinity
	}
	lb = max(lb, st.c)
	for i := range sr.classes {
		c := &sr.classes[i]
		sr.slots[i] = -1
		if int(st.placed[i]) == len(c.idxs) {
			continue
		}
		s, ok := sr.tl.FindSlot(st.g, c.procs, c.len)
		if !ok || s > core.Infinity-c.len {
			return core.Infinity
		}
		sr.slots[i] = s
		lb = max(lb, s+c.len)
	}
	return lb
}

// offer adds to the next layer the state st leaves when the next job of
// class ci starts at s, unless a state of its multiset dominates it or no
// class left would ever fit; it drops the states the new one dominates.
// st's runs are held.
func (sr *search) offer(st *state, ci int, s core.Time) {
	c := &sr.classes[ci]
	copy(sr.placed, st.placed)
	sr.placed[ci]++
	e := s + c.len
	sr.apply(s, c.len, c.procs, true)
	g, ok := sr.tl.FindSlot(s, sr.narrowest(), 1)
	sr.apply(s, c.len, c.procs, false)
	if !ok {
		return
	}
	ch := &sr.cand
	*ch = state{prev: st, class: ci, start: s, g: g, c: max(st.c, e, g),
		work: st.work - int64(c.procs)*int64(c.len), runs: ch.runs[:0]}
	added := e <= g
	for _, r := range st.runs {
		if !added && e <= r.end {
			if e == r.end {
				r.procs += c.procs
			} else {
				ch.runs = append(ch.runs, run{e, c.procs})
			}
			added = true
		}
		if r.end > g {
			ch.runs = append(ch.runs, r)
		}
	}
	if !added {
		ch.runs = append(ch.runs, run{e, c.procs})
	}
	for _, r := range ch.runs {
		ch.load += r.procs
	}

	x, ok := sr.next[string(sr.placed)]
	if !ok {
		x = len(sr.buckets)
		sr.next[string(sr.placed)] = x
		sr.buckets, sr.keys = append(sr.buckets, nil), append(sr.keys, string(sr.placed))
	}
	b := sr.buckets[x]
	for k := 0; k < len(b); k++ {
		if dominates(b[k], ch) {
			sr.buckets[x] = b
			return
		}
		if dominates(ch, b[k]) {
			b[k] = b[len(b)-1]
			b = b[:len(b)-1]
			k--
		}
	}
	kept := *ch
	kept.placed, kept.runs = sr.keys[x], append([]run(nil), ch.runs...)
	sr.buckets[x] = append(b, &kept)
}

// dominates reports whether every completion of a is matched by one of b:
// b starts no later and holds no more processors than a at any instant
// from a.g on. Then b.c ≤ a.c too: a job of b's that ends after a.g finds
// a job of a's running until it ends, and a.c ≥ a.g.
func dominates(b, a *state) bool {
	if b.g > a.g {
		return false
	}
	lb, la, i := b.load, a.load, 0
	for t, j := a.g, 0; ; j++ {
		for ; i < len(b.runs) && b.runs[i].end <= t; i++ {
			lb -= b.runs[i].procs
		}
		if lb > la {
			return false
		}
		if j == len(a.runs) {
			return true
		}
		t = a.runs[j].end
		la -= a.runs[j].procs
	}
}
