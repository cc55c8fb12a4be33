// Package threepart implements the 3-PARTITION problem used as the source
// of the paper's Theorem 1 reduction: the proof that RESASCHEDULING admits
// no polynomial-time approximation algorithm with finite ratio builds, from
// any 3-PARTITION instance, a single-machine scheduling instance whose
// reservations carve the timeline into k windows of length exactly B.
//
// The package provides the instance type, an exact backtracking solver
// (3-PARTITION is strongly NP-complete; the solver is exponential but fine
// at the sizes the experiments use), and a generator of YES instances.
package threepart

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Instance is a 3-PARTITION instance: 3k positive integers that should be
// split into k triples each summing to B.
type Instance struct {
	// Items are the 3k integers.
	Items []int64
	// B is the target sum of each triple.
	B int64
}

// K returns the number of groups, len(Items)/3.
func (in *Instance) K() int { return len(in.Items) / 3 }

// Errors returned by Validate.
var (
	ErrShape = errors.New("threepart: item count not a positive multiple of 3")
	ErrSum   = errors.New("threepart: items do not sum to k*B")
	ErrItem  = errors.New("threepart: non-positive item")
)

// Validate checks the structural requirements: 3k items, all positive,
// summing to k·B. (It does not require the strict B/4 < x < B/2 condition
// of the canonical strongly NP-complete variant; the solver handles general
// instances, and GenerateYes draws inside it.)
func (in *Instance) Validate() error {
	if len(in.Items) == 0 || len(in.Items)%3 != 0 {
		return fmt.Errorf("%w: %d items", ErrShape, len(in.Items))
	}
	var sum int64
	for _, x := range in.Items {
		if x <= 0 {
			return fmt.Errorf("%w: %d", ErrItem, x)
		}
		sum += x
	}
	if sum != int64(in.K())*in.B {
		return fmt.Errorf("%w: sum=%d, k*B=%d", ErrSum, sum, int64(in.K())*in.B)
	}
	return nil
}

// solver carries the backtracking state for Solve.
type solver struct {
	in   *Instance
	idx  []int // item indices sorted by decreasing value
	used []bool
	out  [][3]int
}

// fillGroups completes groups g..k-1. The first unused item always anchors
// the current group (any valid partition can be reordered this way), which
// eliminates group-permutation symmetry.
func (s *solver) fillGroups(g int) bool {
	if g == s.in.K() {
		return true
	}
	anchor := -1
	for p := range s.idx {
		if !s.used[s.idx[p]] {
			anchor = p
			break
		}
	}
	i := s.idx[anchor]
	s.used[i] = true
	members := [3]int{i}
	if s.complete(g, anchor, 1, s.in.Items[i], &members) {
		return true
	}
	s.used[i] = false
	return false
}

// complete enumerates the remaining members of group g (scanning positions
// after fromPos in the sorted order so each pair is tried once) and, when
// the triple sums to B, recurses into the next group. Equal values at the
// same depth are skipped to avoid symmetric retries.
func (s *solver) complete(g, fromPos, have int, sum int64, members *[3]int) bool {
	if have == 3 {
		if sum != s.in.B {
			return false
		}
		s.out = append(s.out, *members)
		if s.fillGroups(g + 1) {
			return true
		}
		s.out = s.out[:len(s.out)-1]
		return false
	}
	var prev int64 = -1
	for p := fromPos + 1; p < len(s.idx); p++ {
		i := s.idx[p]
		if s.used[i] {
			continue
		}
		v := s.in.Items[i]
		if v == prev {
			continue
		}
		if sum+v > s.in.B {
			continue // descending order: smaller items may still fit
		}
		prev = v
		s.used[i] = true
		members[have] = i
		if s.complete(g, p, have+1, sum+v, members) {
			return true
		}
		s.used[i] = false
	}
	return false
}

// Solve searches for a partition of the items into k groups of three with
// equal sums B. It returns the groups as index triples, or ok=false when
// the instance is a NO instance. Complexity is exponential; intended for
// k up to ~8-10.
func (in *Instance) Solve() (groups [][3]int, ok bool) {
	if in.Validate() != nil {
		return nil, false
	}
	n := len(in.Items)
	s := &solver{in: in, used: make([]bool, n)}
	s.idx = make([]int, n)
	for i := range s.idx {
		s.idx[i] = i
	}
	sort.Slice(s.idx, func(a, b int) bool { return in.Items[s.idx[a]] > in.Items[s.idx[b]] })
	if s.fillGroups(0) {
		return s.out, true
	}
	return nil, false
}

// GenerateYes produces a random YES instance with k groups and target B
// (B must be at least 12 so the strict window (B/4, B/2) has room for
// distinct triples). Items are shuffled so solvers cannot exploit order.
func GenerateYes(r *rng.PCG, k int, b int64) *Instance {
	if k < 1 || b < 12 {
		panic("threepart: GenerateYes needs k >= 1, B >= 12")
	}
	items := make([]int64, 0, 3*k)
	for g := 0; g < k; g++ {
		// Draw x, y in (B/4, B/2) and set z = B-x-y, retrying until z is
		// also strictly inside (B/4, B/2).
		for {
			x := r.Int63Range(b/4+1, b/2-1)
			y := r.Int63Range(b/4+1, b/2-1)
			z := b - x - y
			if z > b/4 && z < b/2 {
				items = append(items, x, y, z)
				break
			}
		}
	}
	r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return &Instance{Items: items, B: b}
}
