package stats

// SnapRing is a fixed-capacity ring of timestamped snapshots of a
// cumulative counter vector — the windowed-aggregation primitive under
// internal/slo. A producer (one goroutine; the ring is unsynchronized)
// pushes a snapshot of its counters every period; the difference between
// two snapshots is then the exact event counts for the span between
// them, with no cooperation from the counter writers. That is what
// makes windows scrape-safe here: the live counters stay lock-free
// atomics bumped by the shard loops, and "the last 5 minutes" is pure
// arithmetic over copies.
//
// The vector layout is the caller's business — slo packs objective
// counters and histogram buckets side by side — the ring only requires
// every Push to use the same width.
//
// # Size
//
// The ring is two flat, pointer-free arrays: capacity timestamps and
// capacity×width values, slot i's vector at vals[i*width:(i+1)*width].
// It holds 8·capacity·(1+width) bytes in two allocations. A ring
// answers a window exactly — as an unbounded history would — while the
// snapshot at or past the window's far edge is still retained, so a
// producer pushing every period needs window/period + 2 slots: the
// snapshots inside the window, the anchor at its edge, and one for a
// tick that arrives late. A clock that steps back by s drops
// the snapshots it stepped over (Push), so until it is past the step
// again a window that long answers from the oldest snapshot, over the
// shorter span Delta reports. The slo engine sizes every ring by the
// longest window asked of it; under its default spec (10s period, 1h
// budget window, 6h warn rule) an objective's two-counter ring is
// 2 162 × 24 B ≈ 52 KB and a tracked histogram's 65-bucket ring
// 362 × 528 B ≈ 191 KB.
type SnapRing struct {
	at    []int64  // at[i] is slot i's timestamp
	vals  []uint64 // slot i's vector is vals[i*width : (i+1)*width]
	width int
	n     int // valid entries
	head  int // index of the newest entry, meaningful when n > 0
}

// NewSnapRing builds a ring of the given capacity (snapshots retained)
// and vector width. Capacity below 2 is raised to 2 — a single retained
// snapshot can never answer a window.
func NewSnapRing(capacity, width int) *SnapRing {
	if capacity < 2 {
		capacity = 2
	}
	if width < 0 {
		width = 0
	}
	return &SnapRing{
		at:    make([]int64, capacity),
		vals:  make([]uint64, capacity*width),
		width: width,
	}
}

// vec is slot i's vector.
func (r *SnapRing) vec(i int) []uint64 {
	return r.vals[i*r.width : (i+1)*r.width : (i+1)*r.width]
}

// prev is the slot before i, wrapping.
func (r *SnapRing) prev(i int) int {
	if i == 0 {
		return len(r.at) - 1
	}
	return i - 1
}

// Push records a snapshot of the cumulative vector taken at time at
// (any monotone unit — the slo engine uses nanoseconds). The vector is
// copied; the caller may reuse it. A timestamp that does not advance
// past the newest retained snapshot — a duplicate tick or a clock that
// stepped backwards — overwrites the newest slot in place instead of
// appending, so the ring's timestamps stay strictly increasing and a
// misbehaving clock degrades window resolution rather than corrupting
// deltas. Push panics if len(vec) differs from the ring width.
func (r *SnapRing) Push(at int64, vec []uint64) {
	if len(vec) != r.width {
		panic("stats: SnapRing.Push vector width mismatch")
	}
	if r.n > 0 && at <= r.at[r.head] {
		copy(r.vec(r.head), vec)
		if at < r.at[r.head] {
			r.at[r.head] = at
			r.trimAfterRegression(at)
		}
		return
	}
	r.head++
	if r.head == len(r.at) {
		r.head = 0
	}
	r.at[r.head] = at
	copy(r.vec(r.head), vec)
	if r.n < len(r.at) {
		r.n++
	}
}

// trimAfterRegression drops retained snapshots whose timestamps are no
// longer older than the (rewritten) newest one, restoring the strictly
// increasing invariant after a backwards clock step.
func (r *SnapRing) trimAfterRegression(at int64) {
	for r.n > 1 {
		p := r.prev(r.head)
		if r.at[p] < at {
			return
		}
		// p is no older than the rewritten newest: the newest moves down
		// into p's slot, dropping it.
		r.at[p] = at
		copy(r.vec(p), r.vec(r.head))
		r.head = p
		r.n--
	}
}

// Delta writes into dst the per-element counter increments over
// (approximately) the trailing window: newest snapshot minus the
// youngest retained snapshot at least window old relative to the newest.
// When no retained snapshot is that old — the process is young, or the
// window is shorter than the snapshot period — the oldest available
// snapshot anchors the delta instead, and the returned span (the actual
// timestamp distance covered, in Push's units) tells the caller how
// much history the numbers really cover; ratio-based consumers like
// burn rates stay meaningful over a partial window. Elements that went
// backwards between the two snapshots (a counter reset) clamp to 0.
//
// Delta reports ok=false — leaving dst untouched — while fewer than two
// snapshots are retained: an empty window is "no data", never zeros
// masquerading as a quiet period.
func (r *SnapRing) Delta(window int64, dst []uint64) (span int64, ok bool) {
	if len(dst) != r.width {
		panic("stats: SnapRing.Delta vector width mismatch")
	}
	if r.n < 2 {
		return 0, false
	}
	newest := r.at[r.head]
	cutoff := newest - window
	// Walk backwards from the second-newest: the first snapshot at or
	// past the cutoff wins; the oldest retained is the fallback.
	anchor := r.head
	for i := 1; i < r.n; i++ {
		anchor = r.prev(anchor)
		if r.at[anchor] <= cutoff {
			break
		}
	}
	nvec, ovec := r.vec(r.head), r.vec(anchor)
	for i := range dst {
		nv, ov := nvec[i], ovec[i]
		if nv < ov {
			dst[i] = 0
			continue
		}
		dst[i] = nv - ov
	}
	return newest - r.at[anchor], true
}
