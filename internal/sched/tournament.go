package sched

import "math"

// Tournament is a min-width tournament over the positions of a priority
// list: an array-backed complete binary tree whose leaf p holds the width
// of the job at list position p and whose inner nodes hold the minimum of
// their children. Its one query, Next, is what every list pass in this
// repository asks — "the leftmost pending position at or after p whose job
// could fit in free processors" — so a pass visits only jobs that pass the
// width test, in exact list order, at O(log n) apiece instead of walking
// the whole pending list. Remove takes a position out (a job started, or
// one LSRC parks until it may fit) and Restore puts a removed one back.
//
// The tournament knows widths only. Whether a job's whole window fits is
// still the capacity index's call (CanPlace); the tournament just keeps
// the index from being asked about jobs that are too wide for the capacity
// free at the decision instant, which can never fit.
type Tournament struct {
	// t[1] is the root, t[leaves+p] the leaf of position p; t[0] is unused.
	t      []int32
	leaves int // number of leaves: the list length rounded up to a power of two
}

// gone is the width of a removed or padding leaf: wider than any machine.
const gone = math.MaxInt32

// clampWidth maps a processor count into the tournament's int32 domain.
// Counts at or above gone-1 collapse to gone-1, which keeps Next
// conservative (it may offer such a job, never hide one) on machines wider
// than an int32.
func clampWidth(q int) int32 {
	if q >= gone {
		return gone - 1
	}
	return int32(q)
}

// NewTournament builds the tournament over n list positions, width(p)
// giving the processor requirement of the job at position p.
func NewTournament(n int, width func(p int) int) Tournament {
	leaves := 1
	for leaves < n {
		leaves <<= 1
	}
	t := make([]int32, 2*leaves)
	for p := 0; p < n; p++ {
		t[leaves+p] = clampWidth(width(p))
	}
	for p := n; p < leaves; p++ {
		t[leaves+p] = gone
	}
	for i := leaves - 1; i >= 1; i-- {
		t[i] = min(t[2*i], t[2*i+1])
	}
	return Tournament{t: t, leaves: leaves}
}

// Next returns the leftmost position >= p that has not been removed and
// whose width is at most free, or -1 if there is none.
func (tr *Tournament) Next(p, free int) int {
	if p >= tr.leaves {
		return -1
	}
	f := clampWidth(free)
	i := tr.leaves + p
	// Climb: while the subtree at i holds no fit, move to the subtree that
	// covers the positions immediately to its right.
	for tr.t[i] > f {
		for i&1 == 1 {
			i >>= 1
		}
		if i == 0 {
			return -1 // walked off the right edge
		}
		i++
	}
	// Descend to the leftmost fitting leaf.
	for i < tr.leaves {
		i <<= 1
		if tr.t[i] > f {
			i++
		}
	}
	return i - tr.leaves
}

// First returns the leftmost position that has not been removed, or -1.
func (tr *Tournament) First() int { return tr.Next(0, gone-1) }

// Remove takes position p out of the tournament; Next does not return it
// again unless it is restored.
func (tr *Tournament) Remove(p int) {
	i := tr.leaves + p
	tr.t[i] = gone
	for i >>= 1; i >= 1; i >>= 1 {
		m := min(tr.t[2*i], tr.t[2*i+1])
		if tr.t[i] == m {
			break
		}
		tr.t[i] = m
	}
}

// Restore puts a removed position p back with the given width, the inverse
// of Remove: the leaf is set and each ancestor lowered while it is wider.
func (tr *Tournament) Restore(p, width int) {
	w := clampWidth(width)
	i := tr.leaves + p
	tr.t[i] = w
	for i >>= 1; i >= 1 && tr.t[i] > w; i >>= 1 {
		tr.t[i] = w
	}
}
