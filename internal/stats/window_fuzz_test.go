package stats

import (
	"slices"
	"testing"
)

// snapOracle is SnapRing without a capacity: every snapshot pushed, with
// the same overwrite and trim rules, answering windows by a linear scan.
// evicted counts the oldest snapshots a ring of capacity cap would no
// longer hold, so the ring must equal list[evicted:].
type snapOracle struct {
	list    []oracleSnap
	evicted int
	cap     int
}

type oracleSnap struct {
	at  int64
	vec []uint64
}

func (o *snapOracle) push(at int64, vec []uint64) {
	vec = slices.Clone(vec)
	if n := len(o.list); n > 0 && at <= o.list[n-1].at {
		o.list[n-1].vec = vec
		if at < o.list[n-1].at {
			o.list[n-1].at = at
			for n = len(o.list); n > 1 && o.list[n-2].at >= at; n = len(o.list) {
				o.list = slices.Delete(o.list, n-2, n-1)
			}
			// A ring trims down to its newest snapshot and no further; what
			// the oracle trims past that the ring had already evicted.
			o.evicted = min(o.evicted, len(o.list)-1)
		}
		return
	}
	if len(o.list)-o.evicted == o.cap {
		o.evicted++
	}
	o.list = append(o.list, oracleSnap{at, vec})
}

// anchor is the index Delta(window) differences the newest against.
func (o *snapOracle) anchor(window int64) int {
	newest := len(o.list) - 1
	for i := newest - 1; i >= 0; i-- {
		if o.list[i].at <= o.list[newest].at-window {
			return i
		}
	}
	return 0
}

// delta differences the newest snapshot against list[anchor].
func (o *snapOracle) delta(anchor int, dst []uint64) int64 {
	old, newest := o.list[anchor], o.list[len(o.list)-1]
	for i := range dst {
		dst[i] = 0
		if newest.vec[i] >= old.vec[i] {
			dst[i] = newest.vec[i] - old.vec[i]
		}
	}
	return newest.at - old.at
}

// FuzzSnapRing drives a ring and the oracle with the same pushes: each
// op is a signed clock step (0 repeats the newest timestamp, below 0
// steps back) and a byte the counters grow by, 0xff halving them as a
// reset would. After every push the ring must hold as many snapshots as
// the oracle says it keeps, answer every window its capacity still
// covers exactly as the unbounded history does, and answer a longer one
// from its oldest snapshot.
func FuzzSnapRing(f *testing.F) {
	f.Add(uint8(1), uint8(2), []byte("\x0a\x01\x0a\x02\x0a\x03\x0a\x04"))
	f.Fuzz(func(t *testing.T, width, capacity uint8, ops []byte) {
		w, c := 1+int(width)%66, 2+int(capacity)%14
		r := NewSnapRing(c, w)
		o := &snapOracle{cap: c}
		vec := make([]uint64, w)
		got, want := make([]uint64, w), make([]uint64, w)
		at := int64(1000)
		for ; len(ops) >= 2; ops = ops[2:] {
			at += int64(int8(ops[0]))
			for i := range vec {
				if ops[1] == 0xff {
					vec[i] /= 2
				} else {
					vec[i] += uint64(ops[1]>>(i%8)) & 3
				}
			}
			r.Push(at, vec)
			o.push(at, vec)

			held := len(o.list) - o.evicted
			if r.Len() != held {
				t.Fatalf("at=%d: Len %d, oracle holds %d", at, r.Len(), held)
			}
			if held < 2 {
				if _, ok := r.Delta(0, got); ok {
					t.Fatalf("at=%d: one snapshot answered a window", at)
				}
				continue
			}
			newest := o.list[len(o.list)-1].at
			windows := []int64{0, 1 << 40}
			for _, s := range o.list[o.evicted : len(o.list)-1] {
				d := newest - s.at
				windows = append(windows, d-1, d, d+1)
			}
			for _, win := range windows {
				span, ok := r.Delta(win, got)
				wantSpan := o.delta(max(o.anchor(win), o.evicted), want)
				if !ok || span != wantSpan || !slices.Equal(got, want) {
					t.Fatalf("at=%d window %d: got span %d ok=%v %v, want span %d %v", at, win, span, ok, got, wantSpan, want)
				}
			}
		}
	})
}
