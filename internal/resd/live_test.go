package resd

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// A live record is 32 bytes of plain words: two to a cache line, and
// nothing in the table for the collector to trace.
var _ [32]struct{} = [unsafe.Sizeof(resv{})]struct{}{}

// tableVsMap drives a liveTable and the map it replaced with the same
// operations and fails on the first difference.
type tableVsMap struct {
	tb   testing.TB
	tbl  liveTable
	want map[ID]resv

	doublings int // times put replaced the slice by a larger one
	wrapped   int // deletions in a run that went on over the end of the slice
}

func newTableVsMap(tb testing.TB) *tableVsMap {
	return &tableVsMap{tb: tb, want: make(map[ID]resv)}
}

// valueFor makes up a record for id; different ids get different fields.
func valueFor(id ID) resv {
	x := uint64(id)*0xD6E8FEB86659FD93 + 1
	return resv{key: uint64(id) + 1, start: core.Time(x >> 20), dur: core.Time(x&0xFFFF) + 1, q: int32(x>>8&0xFF) + 1, cell: uint32(x >> 40)}
}

func (o *tableVsMap) get(id ID) {
	o.tb.Helper()
	i := o.tbl.find(id)
	want, ok := o.want[id]
	switch {
	case ok && i < 0:
		o.tb.Fatalf("id %#x: the table lost it", uint64(id))
	case !ok && i >= 0:
		o.tb.Fatalf("id %#x: the table holds %+v, the map nothing", uint64(id), o.tbl.slots[i])
	case ok && o.tbl.slots[i] != want:
		o.tb.Fatalf("id %#x: the table holds %+v, the map %+v", uint64(id), o.tbl.slots[i], want)
	}
}

// put adds id to both sides; an id already there is looked up instead
// (the table's put is for fresh ids, which is all a shard mints).
func (o *tableVsMap) put(id ID) {
	o.tb.Helper()
	if _, ok := o.want[id]; ok {
		o.get(id)
		return
	}
	size := len(o.tbl.slots)
	o.tbl.put(valueFor(id))
	o.want[id] = valueFor(id)
	if size != 0 && len(o.tbl.slots) > size {
		o.doublings++
	}
	o.get(id)
}

// del removes id from both sides; an absent id must be a miss that
// changes nothing.
func (o *tableVsMap) del(id ID) {
	o.tb.Helper()
	o.get(id)
	i := o.tbl.find(id)
	if i < 0 {
		return
	}
	for j, last := i, len(o.tbl.slots)-1; o.tbl.slots[j].key != 0; j++ {
		if j == last {
			if o.tbl.slots[0].key != 0 {
				o.wrapped++
			}
			break
		}
	}
	o.tbl.delAt(i)
	delete(o.want, id)
	if o.tbl.find(id) >= 0 {
		o.tb.Fatalf("id %#x: still found after delete", uint64(id))
	}
}

// check compares the whole table with the map and checks the probing
// invariant: no empty slot between a record's home and where it sits.
func (o *tableVsMap) check() {
	o.tb.Helper()
	if o.tbl.n != len(o.want) {
		o.tb.Fatalf("table counts %d, map %d", o.tbl.n, len(o.want))
	}
	if size := len(o.tbl.slots); size&(size-1) != 0 || o.tbl.n*liveLoadDen > size*liveLoadNum {
		o.tb.Fatalf("%d records in %d slots: not a power of two, or over the load bound", o.tbl.n, size)
	}
	mask, seen := len(o.tbl.slots)-1, 0
	for j, r := range o.tbl.slots {
		if r.key == 0 {
			continue
		}
		seen++
		if want, ok := o.want[r.id()]; !ok || want != r {
			o.tb.Fatalf("slot %d holds %+v, the map %+v (present %v)", j, r, want, ok)
		}
		for i := o.tbl.home(r.key); i != j; i = (i + 1) & mask {
			if o.tbl.slots[i].key == 0 {
				o.tb.Fatalf("id %#x sits in slot %d, past the empty slot %d after its home", uint64(r.id()), j, i)
			}
		}
	}
	if seen != o.tbl.n {
		o.tb.Fatalf("%d occupied slots, count says %d", seen, o.tbl.n)
	}
}

// longestProbe is the greatest distance of any record from its home slot.
func (t *liveTable) longestProbe() int {
	mask, longest := len(t.slots)-1, 0
	for j, r := range t.slots {
		if r.key != 0 {
			longest = max(longest, (j-t.home(r.key))&mask)
		}
	}
	return longest
}

// Shard numbers whose bits an id carries above its sequence: none, one,
// the top bit, alternating, all.
var shardPatterns = []int{0, 1, 0x8000, 0x5555, 0xFFFF}

// TestLiveTableMatchesMap is the seeded differential test: 10⁵ mixed
// operations, sequential ids under several shard patterns admitted and
// cancelled oldest-first, random ids, lookups and deletions of live and
// absent ids, the population swelling and draining so the table doubles
// repeatedly and runs form across the end of the slice.
func TestLiveTableMatchesMap(t *testing.T) {
	const seed = 20261003
	defer func() {
		if t.Failed() {
			t.Logf("seed %d", seed)
		}
	}()
	r := rand.New(rand.NewSource(seed))
	o := newTableVsMap(t)
	next := make([]uint64, len(shardPatterns))
	var fifo, all []ID // sequential ids oldest first; every id ever put
	mint := func() ID {
		p := r.Intn(len(shardPatterns))
		id := makeID(shardPatterns[p], next[p])
		next[p]++
		fifo, all = append(fifo, id), append(all, id)
		return id
	}
	for op := 0; op < 100_000; op++ {
		// The target population moves between 0 and 6 000 in a slow saw,
		// so puts dominate one stretch and deletions the next.
		target := 6000 - abs(op%24000-12000)/2
		switch k := r.Intn(10); {
		case k < 3 && len(o.want) <= target: // admit a fresh sequential id
			o.put(mint())
		case k < 3: // shed one
			if len(fifo) > 0 {
				o.del(fifo[0])
				fifo = fifo[1:]
			}
		case k < 5: // churn: admit one, cancel the oldest
			o.put(mint())
			o.del(fifo[0])
			fifo = fifo[1:]
		case k == 5: // an id with random sequence bits
			id := makeID(shardPatterns[r.Intn(len(shardPatterns))], r.Uint64())
			all = append(all, id)
			o.put(id)
		case k == 6 && len(all) > 0: // delete anything ever put, live or not
			o.del(all[r.Intn(len(all))])
		case k == 7: // delete an id never put
			o.del(makeID(7, r.Uint64()))
		case len(all) > 0: // look up anything ever put, live or not
			o.get(all[r.Intn(len(all))])
		}
		if op%997 == 0 {
			o.check()
		}
	}
	o.check()
	if o.doublings < 3 {
		t.Errorf("the table doubled %d times, want >= 3", o.doublings)
	}
	if o.wrapped == 0 {
		t.Error("no deletion met a run that crossed the end of the slice")
	}
}

func abs(x int) int { return max(x, -x) }

// TestLiveTableWrap builds the case by hand: ids whose home is the last
// slot form a run over the end of the slice, and deleting its head
// shifts the others back across it.
func TestLiveTableWrap(t *testing.T) {
	o := newTableVsMap(t)
	o.put(makeID(0, 0))
	last := len(o.tbl.slots) - 1
	var run []ID
	for seq := uint64(1); len(run) < 3; seq++ {
		if id := makeID(3, seq); o.tbl.home(uint64(id)+1) == last {
			run = append(run, id)
			o.put(id)
		}
	}
	if o.tbl.slots[last].id() != run[0] || o.tbl.find(run[2]) >= last {
		t.Fatalf("run %#x does not wrap: slots %+v", run, o.tbl.slots)
	}
	o.check()
	o.del(run[0])
	o.check()
	if o.wrapped != 1 || o.tbl.slots[last].id() != run[1] {
		t.Fatalf("deleting the head did not pull the run back over the end: slots %+v", o.tbl.slots)
	}
	o.del(run[2])
	o.del(run[1])
	o.check()
}

// TestLiveTableChurnKeepsShape is the regression the table exists for:
// a shard at steady occupancy admits fresh sequential ids and cancels
// them soon after, the pattern that fills a tombstoning map until it
// rehashes. Here a million such pairs at the load bound leave the
// capacity where it was, and no record further than churnProbeBound
// slots from its home.
func TestLiveTableChurnKeepsShape(t *testing.T) {
	const (
		slots           = 1 << 16
		occupancy       = slots*liveLoadNum/liveLoadDen - 1 // one admission below the bound
		churnProbeBound = 8
	)
	var tbl liveTable
	tbl.reserve(occupancy + 1)
	if len(tbl.slots) != slots {
		t.Fatalf("reserve(%d) made %d slots, want %d", occupancy+1, len(tbl.slots), slots)
	}
	seq := uint64(0)
	for ; seq < occupancy; seq++ {
		tbl.put(valueFor(makeID(2, seq)))
	}
	before := tbl.longestProbe()
	for i := 0; i < 1<<20; i++ {
		tbl.put(valueFor(makeID(2, seq)))
		j := tbl.find(makeID(2, seq-occupancy))
		if j < 0 {
			t.Fatalf("pair %d: id with sequence %d is gone", i, seq-occupancy)
		}
		tbl.delAt(j)
		seq++
	}
	if len(tbl.slots) != slots || tbl.n != occupancy {
		t.Fatalf("after the churn: %d records in %d slots, want %d in %d", tbl.n, len(tbl.slots), occupancy, slots)
	}
	if after := tbl.longestProbe(); after > churnProbeBound {
		t.Fatalf("longest probe %d after the churn (%d before), want <= %d", after, before, churnProbeBound)
	}
}

// FuzzLiveTable replays an op string against the table and the map: each
// pair of bytes is an operation and its argument, over an id space small
// enough that puts collide, deletions hit and an 8-slot table wraps.
func FuzzLiveTable(f *testing.F) {
	f.Add("\x00\x01\x00\x02\x00\x03\x02\x02\x03\x00\x04\x00")
	f.Fuzz(func(t *testing.T, ops string) {
		o := newTableVsMap(t)
		var fifo []ID
		var seq uint64
		small := func(arg byte) ID { return makeID(shardPatterns[int(arg>>5)%len(shardPatterns)], uint64(arg&31)) }
		for ; len(ops) >= 2; ops = ops[2:] {
			arg := ops[1]
			switch ops[0] % 6 {
			case 0:
				o.put(small(arg))
			case 1: // a burst of fresh sequential ids, enough to double
				for n := int(arg)%48 + 1; n > 0; n-- {
					id := makeID(9, seq)
					seq++
					fifo = append(fifo, id)
					o.put(id)
				}
			case 2:
				o.del(small(arg))
			case 3: // cancel the oldest of the sequential ids
				for n := int(arg)%48 + 1; n > 0 && len(fifo) > 0; n-- {
					o.del(fifo[0])
					fifo = fifo[1:]
				}
			case 4:
				o.get(small(arg))
			case 5:
				o.del(makeID(9, uint64(arg))) // live, cancelled or never minted
			}
		}
		o.check()
	})
}
