package restree

import (
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
)

// FuzzTreeMatchesTimeline is the differential twin of
// profile.FuzzTimelineOps: the same op-stream decoding drives the tree and
// the array timeline side by side, and every observation — commit/release
// outcomes, point capacities, earliest-fit slots, breakpoints and the full
// canonical segment rendering — must agree exactly, with the tree's
// structural invariants holding after every op. Coverage-guided
// exploration shakes out the segment-algebra corners (splits at existing
// breakpoints, boundary merges, infinite tails) that seeded random streams
// reach rarely.
func FuzzTreeMatchesTimeline(f *testing.F) {
	f.Add([]byte{1, 0, 5, 2, 0, 10, 3, 1})
	f.Add([]byte{2, 3, 3, 1, 1, 3, 3, 1, 0, 0, 1, 1})
	f.Add([]byte{0, 0, 15, 4, 0, 5, 7, 2, 2, 1, 9, 3})
	f.Fuzz(func(t *testing.T, ops []byte) { replayOps(t, ops) })
}

// replayOps decodes ops, four bytes each, into commits, releases of the
// oldest commitment and probes, applies them to a tree and an array
// timeline side by side, and returns the tree. A start is a byte, so the
// horizon holds four leaves' worth of breakpoints: leaf splits, drops and
// merges are within the fuzzer's reach.
func replayOps(t *testing.T, ops []byte) *Tree {
	const horizon = 256
	const m = 5
	tr := New(m)
	tl := profile.New(m)
	type iv struct {
		s, d core.Time
		q    int
	}
	var committed []iv
	for len(ops) >= 4 {
		op, a, b, c := ops[0]%3, ops[1], ops[2], ops[3]
		ops = ops[4:]
		start := core.Time(a)
		dur := min(core.Time(b%16+1), horizon-start)
		q := int(c%m + 1)
		switch op {
		case 0: // commit on both
			errT := tr.Commit(start, dur, q)
			errA := tl.Commit(start, dur, q)
			if (errT == nil) != (errA == nil) {
				t.Fatalf("commit(%v,%v,%d): tree %v, array %v", start, dur, q, errT, errA)
			}
			if errT == nil {
				committed = append(committed, iv{start, dur, q})
			}
		case 1: // release the oldest commitment on both
			if len(committed) == 0 {
				continue
			}
			cmt := committed[0]
			committed = committed[1:]
			if err := tr.Release(cmt.s, cmt.d, cmt.q); err != nil {
				t.Fatalf("tree release of prior commit failed: %v", err)
			}
			if err := tl.Release(cmt.s, cmt.d, cmt.q); err != nil {
				t.Fatalf("array release of prior commit failed: %v", err)
			}
		case 2: // probe
			if got, want := tr.CapacityAt(start), tl.AvailableAt(start); got != want {
				t.Fatalf("CapacityAt(%v) = %d, array %d", start, got, want)
			}
			gotT, gotOK := tr.EarliestFit(q, dur, start)
			refT, refOK := tl.FindSlot(start, q, dur)
			if gotOK != refOK || (gotOK && gotT != refT) {
				t.Fatalf("EarliestFit(q=%d,dur=%v,from=%v) = %v,%v; array %v,%v",
					q, dur, start, gotT, gotOK, refT, refOK)
			}
			// start-1 is -1 at the origin, where the answer is the origin.
			gotT, gotOK = tr.NextBreakpoint(start - 1)
			refT, refOK = tl.NextBreakpoint(start - 1)
			if gotOK != refOK || gotT != refT {
				t.Fatalf("NextBreakpoint(%v) = %v,%v; array %v,%v", start-1, gotT, gotOK, refT, refOK)
			}
			if got, want := tr.MinAvailable(start, start+dur), tl.MinAvailable(start, start+dur); got != want {
				t.Fatalf("MinAvailable(%v,%v) = %d, array %d", start, start+dur, got, want)
			}
		}
		if !sameSegments(tr, tl) {
			t.Fatalf("canonical forms diverge:\ntree:  %v\narray: %v", tr, tl)
		}
		checkInvariants(t, tr)
	}
	return tr
}

// sameSegments reports whether both hold the same breakpoints with the same
// capacities: what comparing their String()s says, without the formatting,
// which is most of a long input's cost.
func sameSegments(tr *Tree, tl *profile.Timeline) bool {
	bps := tl.Breakpoints()
	if tr.NumSegments() != len(bps) {
		return false
	}
	i, same := 0, true
	tr.walk(0, func(start, _ core.Time, avail int) bool {
		same = i < len(bps) && bps[i] == start && tl.AvailableAt(start) == avail
		i++
		return same
	})
	return same && i == len(bps)
}
