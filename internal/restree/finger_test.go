package restree

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/rng"
)

// fingerSeg returns where the finger's segment starts and ends.
func fingerSeg(tr *Tree) (start, end core.Time) {
	d, k := int(tr.fin.d), int(tr.fin.k)
	e := &tr.dir[d]
	l := &tr.leaves[e.leaf]
	return l.start[k], tr.slotEnd(d, e, l, k)
}

// probeFinger asks the reads a list scheduler makes — AvailableAt,
// NextBreakpoint, CanPlace and FindSlot — at the finger's instant, inside
// its segment, at the tick before it, at its successor and far away, and
// compares each with the timeline.
func (p *pair) probeFinger() {
	p.t.Helper()
	const far = core.Time(1) << 40
	tr, tl := p.tr, p.tl
	s, e := fingerSeg(tr)
	ats := []core.Time{s, max(s-1, 0), far}
	if e != core.Infinity {
		ats = append(ats, e, s+(e-s)/2, e-1)
	}
	for _, at := range ats {
		if g, w := tr.AvailableAt(at), tl.AvailableAt(at); g != w {
			p.t.Fatalf("finger [%v,%v): AvailableAt(%v) = %d, array %d", s, e, at, g, w)
		}
		g, gok := tr.NextBreakpoint(at)
		w, wok := tl.NextBreakpoint(at)
		if g != w || gok != wok {
			p.t.Fatalf("finger [%v,%v): NextBreakpoint(%v) = %v,%v, array %v,%v", s, e, at, g, gok, w, wok)
		}
		for _, q := range []int{1, tr.m / 2, tr.m} {
			for _, dur := range []core.Time{1, 7, 300} {
				if g, w := tr.CanPlace(at, dur, q), tl.CanPlace(at, dur, q); g != w {
					p.t.Fatalf("finger [%v,%v): CanPlace(%v,%v,%d) = %v, array %v", s, e, at, dur, q, g, w)
				}
				g, gok := tr.FindSlot(at, q, dur)
				w, wok := tl.FindSlot(at, q, dur)
				if g != w || gok != wok {
					p.t.Fatalf("finger [%v,%v): FindSlot(%v,%d,%v) = %v,%v, array %v,%v", s, e, at, q, dur, g, gok, w, wok)
				}
			}
		}
	}
}

// TestFingerFollowsSweep drives the tree the way LSRC does — commits at
// successive breakpoints, the reads at the instant just committed and at
// the next breakpoint — with releases mixed in, and then drains it. After
// every operation the finger must name a live segment, hold the window's
// start unless a split, drop or merge sent it back to the origin, and
// every read around it must agree with the timeline. The run must reach
// each path that moves slots under the finger: a window spanning leaves, a
// full leaf that splits, a start at a leaf's slot 0, a start merged into
// its left neighbour, and a release that merges or drops a leaf.
func TestFingerFollowsSweep(t *testing.T) {
	const (
		m    = 16
		seed = 9
	)
	p := newPair(t, m)
	r := rng.New(seed)
	var seen struct{ spans, full, slot0, mergeLeft, shrink bool }
	apply := func(w window, release bool) {
		t.Helper()
		tr := p.tr
		d := lastLE(tr.first, w.s)
		seen.spans = seen.spans || tr.leafEnd(d) < windowEnd(w.s, w.d)
		seen.full = seen.full || tr.dir[d].n > leafCap-2
		seen.slot0 = seen.slot0 || (d > 0 && tr.first[d] == w.s)
		leaves := len(tr.dir)
		if release {
			p.release(w)
		} else {
			p.commit(w)
		}
		p.same()
		if s, e := fingerSeg(tr); tr.fin.d != 0 || tr.fin.k != 0 {
			if w.s < s || w.s >= e {
				t.Fatalf("seed %d: after %+v (release=%v) the finger holds [%v,%v), not the start", seed, w, release, s, e)
			}
			seen.mergeLeft = seen.mergeLeft || s < w.s
		}
		seen.shrink = seen.shrink || (release && len(tr.dir) < leaves)
		p.probeFinger()
	}

	// Reservations ahead of the clock, as prep books them.
	var booked []window
	for i := 0; i < 12; i++ {
		w := window{s: core.Time(r.Intn(3000)), d: core.Time(r.Intn(200) + 1), q: r.Intn(4) + 1}
		if p.tl.CanPlace(w.s, w.d, w.q) {
			apply(w, false)
		}
	}
	at := core.Time(0)
	for event := 0; event < 700; event++ {
		for tries := r.Intn(4); tries > 0; tries-- {
			w := window{s: at, d: core.Time(r.Intn(120) + 1), q: r.Intn(5) + 1}
			if r.Intn(12) == 0 {
				w.d = core.Time(r.Intn(4000) + 500) // reaches over later leaves
			}
			if p.tl.CanPlace(w.s, w.d, w.q) {
				apply(w, false)
				booked = append(booked, w)
			}
		}
		if len(booked) > 0 && r.Intn(5) == 0 {
			i := r.Intn(len(booked))
			apply(booked[i], true)
			booked = append(booked[:i], booked[i+1:]...)
		}
		next, ok := p.tr.NextBreakpoint(at)
		if !ok {
			break
		}
		at = next
	}
	if len(p.tr.dir) < 4 {
		t.Fatalf("seed %d: the sweep built only %d leaves", seed, len(p.tr.dir))
	}
	r.Shuffle(len(booked), func(i, j int) { booked[i], booked[j] = booked[j], booked[i] })
	for _, w := range booked {
		apply(w, true)
	}
	if !seen.spans || !seen.full || !seen.slot0 || !seen.mergeLeft || !seen.shrink {
		t.Fatalf("seed %d: paths reached %+v, want all", seed, seen)
	}
}

// TestConcurrentReadsOfOneIndex checks the contract that lets an index go
// out with no lock (profile.CapacityIndex): reads never write. On both
// backends it runs the sweep LSRC makes — commits at successive
// breakpoints, releases mixed in — and at several points of it has eight
// goroutines read one clone at and next to the sweep's instant, where the
// tree's finger is, with no lock. Under -race a read that wrote the index
// fails here.
func TestConcurrentReadsOfOneIndex(t *testing.T) {
	const (
		m       = 32
		readers = 8
		events  = 400
	)
	for name, idx := range map[string]profile.CapacityIndex{"tree": New(m), "array": profile.New(m)} {
		t.Run(name, func(t *testing.T) {
			r := rng.New(17)
			var booked []window
			at := core.Time(0)
			for event := 0; event < events; event++ {
				for tries := r.Intn(4); tries > 0; tries-- {
					w := window{s: at, d: core.Time(r.Intn(80) + 1), q: r.Intn(6) + 1}
					if idx.CanPlace(w.s, w.d, w.q) {
						if err := idx.Commit(w.s, w.d, w.q); err != nil {
							t.Fatal(err)
						}
						booked = append(booked, w)
					}
				}
				if len(booked) > 0 && r.Intn(4) == 0 {
					i := r.Intn(len(booked))
					if err := idx.Release(booked[i].s, booked[i].d, booked[i].q); err != nil {
						t.Fatal(err)
					}
					booked = append(booked[:i], booked[i+1:]...)
				}
				if event%50 == 0 {
					readTogether(t, idx, idx.CloneIndex(), at, readers)
				}
				next, ok := idx.NextBreakpoint(at)
				if !ok {
					next = at + 1 // nothing booked ahead: the clock moves on
				}
				at = next
			}
		})
	}
}

// readTogether has n goroutines ask snap, with no lock, what a list
// scheduler asks around the instant at, and compare each answer with
// idx's, which nobody mutates meanwhile.
func readTogether(t *testing.T, idx, snap profile.CapacityIndex, at core.Time, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for stream := uint64(0); stream < uint64(n); stream++ {
		wg.Add(1)
		go func(r *rng.PCG) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				a := max(at+core.Time(r.Intn(3))-1, 0)
				q, dur := r.Intn(idx.M())+1, core.Time(r.Intn(50)+1)
				if got, want := snap.AvailableAt(a), idx.AvailableAt(a); got != want {
					t.Errorf("AvailableAt(%v) = %d, owner's %d", a, got, want)
					return
				}
				if got, want := snap.CanPlace(a, dur, q), idx.CanPlace(a, dur, q); got != want {
					t.Errorf("CanPlace(%v,%v,%d) = %v, owner's %v", a, dur, q, got, want)
					return
				}
				got, gotOK := snap.FindSlot(a, q, dur)
				want, wantOK := idx.FindSlot(a, q, dur)
				if got != want || gotOK != wantOK {
					t.Errorf("FindSlot(%v,%d,%v) = %v,%v, owner's %v,%v", a, q, dur, got, gotOK, want, wantOK)
					return
				}
				got, gotOK = snap.NextBreakpoint(a)
				want, wantOK = idx.NextBreakpoint(a)
				if got != want || gotOK != wantOK {
					t.Errorf("NextBreakpoint(%v) = %v,%v, owner's %v,%v", a, got, gotOK, want, wantOK)
					return
				}
			}
		}(rng.NewStream(17, stream))
	}
	wg.Wait()
}
