package sched

import "math"

// Tournament is a min-width tournament over the positions of a priority
// list: an array-backed complete binary tree whose leaf p holds the width
// of the job at list position p and whose inner nodes hold the minimum of
// their children. Its queries are what every list pass in this repository
// asks — "the leftmost pending position whose job could fit in free
// processors" — so a pass visits only jobs that pass the width test, in
// exact list order, at O(log n) apiece instead of walking the whole
// pending list. Remove takes a position out (a job started, or one LSRC
// parks until it may fit) and Restore puts a removed one back.
//
// Leftmost answers from the root: one compare when nothing fits, else one
// descent. It is the whole query for a pass that takes every position it
// is offered out of the tournament while free only falls, as LSRC's does:
// every position left of the one just offered is then removed or wider
// than free, so the leftmost fit is the next one in list order. Next(p,
// free) asks the same from position p on, climbing from p's leaf first; it
// stays for the passes that leave a refused job in the tournament (EASY's
// back-fill, the simulator's greedy dispatch), where a fit left of p may
// still be there and must not be offered again.
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

// clampWidth maps a processor count into the tournament's int32 domain,
// [-1, gone-1]. Counts at or above gone-1 collapse to gone-1, which keeps
// the queries conservative (they may offer such a job, never hide one) on
// machines wider than an int32; negative counts collapse to -1, which no
// job of width 0 or more fits in.
func clampWidth(q int) int32 {
	return int32(min(max(q, -1), gone-1))
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

// descend returns the leftmost leaf under node i whose width is at most f,
// as a position; the subtree must hold one (t[i] <= f). At each level it
// steps right exactly when the left child is wider than f, read off the
// sign of f - t[2i] without a branch. That difference cannot overflow:
// clampWidth keeps f in [-1, gone-1] and every node in [-1, gone], so it
// lies in [-1-gone, gone], which is the int32 range.
func (tr *Tournament) descend(i int, f int32) int {
	t, leaves := tr.t, tr.leaves
	for i < leaves {
		i = 2*i + int(uint32(f-t[2*i])>>31)
	}
	return i - leaves
}

// Leftmost returns the leftmost position that has not been removed and
// whose width is at most free, or -1 if there is none.
func (tr *Tournament) Leftmost(free int) int {
	f := clampWidth(free)
	if tr.t[1] > f {
		return -1
	}
	return tr.descend(1, f)
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
	return tr.descend(i, f)
}

// First returns the leftmost position that has not been removed, or -1.
func (tr *Tournament) First() int { return tr.Leftmost(gone - 1) }

// Remove takes position p out of the tournament; the queries do not return
// it again unless it is restored.
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
