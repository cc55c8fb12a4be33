package resd

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/wal"
)

// A live record is 32 bytes of plain words: two to a cache line, and
// nothing in the slab for the collector to trace.
var _ [32]struct{} = [unsafe.Sizeof(resv{})]struct{}{}

// tableVsMap drives a liveTable and the map it replaced with the same
// operations and fails on the first difference.
type tableVsMap struct {
	tb   testing.TB
	tbl  liveTable
	want map[ID]resv

	doublings int // times put replaced the index by a larger one
	wrapped   int // deletions in a run that went on over the end of the index
	tail      int // deletions of the slab's last record, which moves nothing
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
		o.tb.Fatalf("id %#x: the table holds %+v, the map nothing", uint64(id), o.tbl.slab[i])
	case ok && o.tbl.slab[i] != want:
		o.tb.Fatalf("id %#x: the table holds %+v, the map %+v", uint64(id), o.tbl.slab[i], want)
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
	size := len(o.tbl.index)
	o.tbl.put(valueFor(id))
	o.want[id] = valueFor(id)
	if size != 0 && len(o.tbl.index) > size {
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
	for j, last := o.tbl.entryOf(id), len(o.tbl.index)-1; o.tbl.index[j] != 0; j++ {
		if j == last {
			if o.tbl.index[0] != 0 {
				o.wrapped++
			}
			break
		}
	}
	if i == len(o.tbl.slab)-1 {
		o.tail++
	}
	o.tbl.delAt(i)
	delete(o.want, id)
	if o.tbl.find(id) >= 0 {
		o.tb.Fatalf("id %#x: still found after delete", uint64(id))
	}
}

// check compares the whole table with the map and checks its shape: the
// records fill slab positions [0, n) and match the map; the index names
// each position exactly once and nothing else; no empty entry lies
// between an entry's home and where it sits; the index is a power of two
// within the load bound.
func (o *tableVsMap) check() {
	o.tb.Helper()
	n := len(o.tbl.slab)
	if n != len(o.want) {
		o.tb.Fatalf("the slab holds %d records, the map %d", n, len(o.want))
	}
	if size := len(o.tbl.index); size&(size-1) != 0 || n*liveLoadDen > size*liveLoadNum {
		o.tb.Fatalf("%d records in %d index entries: not a power of two, or over the load bound", n, size)
	}
	for p, r := range o.tbl.slab {
		if want, ok := o.want[r.id()]; !ok || want != r {
			o.tb.Fatalf("slab position %d holds %+v, the map %+v (present %v)", p, r, want, ok)
		}
		if at := o.tbl.find(r.id()); at != p {
			o.tb.Fatalf("slab position %d holds id %#x, find answers %d", p, uint64(r.id()), at)
		}
	}
	mask, named := len(o.tbl.index)-1, make([]bool, n)
	for j, e := range o.tbl.index {
		if e == 0 {
			continue
		}
		if p := int(e) - 1; p < 0 || p >= n || named[p] {
			o.tb.Fatalf("entry %d names slab position %d: past the %d records, or named twice", j, p, n)
		}
		named[e-1] = true
		for i := o.tbl.home(o.tbl.slab[e-1].key); i != j; i = (i + 1) & mask {
			if o.tbl.index[i] == 0 {
				o.tb.Fatalf("id %#x sits in entry %d, past the empty entry %d after its home", uint64(o.tbl.slab[e-1].id()), j, i)
			}
		}
	}
	for p, ok := range named {
		if !ok {
			o.tb.Fatalf("no entry names slab position %d (%+v)", p, o.tbl.slab[p])
		}
	}
}

// entryOf is where in the index id is named.
func (t *liveTable) entryOf(id ID) int {
	return t.seek(uint64(id)+1, int32(t.find(id)+1))
}

// longestProbe is the greatest distance of any entry from its home.
func (t *liveTable) longestProbe() int {
	mask, longest := len(t.index)-1, 0
	for j, e := range t.index {
		if e != 0 {
			longest = max(longest, (j-t.home(t.slab[e-1].key))&mask)
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
// absent ids, the population swelling and draining so the index doubles
// repeatedly and runs form across its end.
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
		t.Errorf("the index doubled %d times, want >= 3", o.doublings)
	}
	if o.wrapped == 0 {
		t.Error("no deletion met a run that crossed the end of the index")
	}
	if o.tail == 0 {
		t.Error("no deletion took the slab's last record")
	}
}

func abs(x int) int { return max(x, -x) }

// TestLiveTableWrap builds the case by hand: ids whose home is the last
// index entry form a run over the end of the index, and deleting its
// head shifts the others back across it.
func TestLiveTableWrap(t *testing.T) {
	o := newTableVsMap(t)
	o.put(makeID(0, 0))
	last := len(o.tbl.index) - 1
	var run []ID
	for seq := uint64(1); len(run) < 3; seq++ {
		if id := makeID(3, seq); o.tbl.home(uint64(id)+1) == last {
			run = append(run, id)
			o.put(id)
		}
	}
	if o.tbl.entryOf(run[0]) != last || o.tbl.entryOf(run[2]) >= last {
		t.Fatalf("run %#x does not wrap: index %v", run, o.tbl.index)
	}
	o.check()
	o.del(run[0])
	o.check()
	if o.wrapped != 1 || o.tbl.entryOf(run[1]) != last {
		t.Fatalf("deleting the head did not pull the run back over the end: index %v", o.tbl.index)
	}
	o.del(run[2])
	o.del(run[1])
	o.check()
}

// TestLiveTableChurnKeepsShape is the regression the table exists for:
// a shard at steady occupancy admits fresh sequential ids and cancels
// them soon after, the pattern that fills a tombstoning map until it
// rehashes. Here a million such pairs at the load bound leave the index
// and the slab's capacity where they were, and no entry further than
// churnProbeBound from its home.
func TestLiveTableChurnKeepsShape(t *testing.T) {
	const (
		slots           = 1 << 16
		occupancy       = slots*liveLoadNum/liveLoadDen - 1 // one admission below the bound
		churnProbeBound = 8
	)
	var tbl liveTable
	tbl.reserve(occupancy + 1)
	if len(tbl.index) != slots || cap(tbl.slab) < occupancy+1 {
		t.Fatalf("reserve(%d) made %d index entries and room for %d records, want %d and %d",
			occupancy+1, len(tbl.index), cap(tbl.slab), slots, occupancy+1)
	}
	room := cap(tbl.slab)
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
	if len(tbl.index) != slots || cap(tbl.slab) != room || len(tbl.slab) != occupancy {
		t.Fatalf("after the churn: %d records, room for %d, %d index entries; want %d, %d, %d",
			len(tbl.slab), cap(tbl.slab), len(tbl.index), occupancy, room, slots)
	}
	if after := tbl.longestProbe(); after > churnProbeBound {
		t.Fatalf("longest probe %d after the churn (%d before), want <= %d", after, before, churnProbeBound)
	}
}

// TestLiveTableBytesPerRecord prices the book one insertion past a
// doubling of the index: records and index together cost at most 56
// bytes a reservation, where 2¹⁷ slots of whole records cost 85.
func TestLiveTableBytesPerRecord(t *testing.T) {
	const n, bound = 1<<16*liveLoadNum/liveLoadDen + 1, 56
	var tbl liveTable
	for seq := uint64(0); seq < n; seq++ {
		tbl.put(valueFor(makeID(2, seq)))
	}
	bytes := cap(tbl.slab)*int(unsafe.Sizeof(resv{})) + len(tbl.index)*int(unsafe.Sizeof(tbl.index[0]))
	if per := float64(bytes) / n; per > bound {
		t.Fatalf("%d records in room for %d and %d index entries: %.1f B a record, want <= %d",
			n, cap(tbl.slab), len(tbl.index), per, bound)
	}
}

// TestBookOrderUnobservable: two services admit the same requests and
// cancel the same ids in opposite orders, which leaves their slabs in
// different orders. Nothing they report may tell them apart: not Dump,
// not the tenant totals, not a byte of a shard's snapshot.
func TestBookOrderUnobservable(t *testing.T) {
	a, b := mustNew(t, Config{Shards: 2, M: 64}), mustNew(t, Config{Shards: 2, M: 64})
	var ids []ID
	for i := range 64 {
		req := Request{
			Tenant: []string{"", "acme", "zeta"}[i%3], Ready: core.Time(i * 7 % 50),
			Q: i%5 + 1, Dur: core.Time(i%11 + 1), Deadline: NoDeadline,
		}
		ra, err := a.Admit(req)
		if err != nil {
			t.Fatal(err)
		}
		if rb, err := b.Admit(req); err != nil || rb != ra {
			t.Fatalf("request %d: %+v, %v; the first service gave %+v", i, rb, err, ra)
		}
		ids = append(ids, ra.ID)
	}
	cancelled := make([]ID, 0, 20)
	for i := 0; len(cancelled) < 20; i += 3 {
		cancelled = append(cancelled, ids[i])
	}
	for i, id := range cancelled {
		if err := a.Cancel(id); err != nil {
			t.Fatal(err)
		}
		if err := b.Cancel(cancelled[len(cancelled)-1-i]); err != nil {
			t.Fatal(err)
		}
	}
	permuted := false
	for i := range a.Shards() {
		permuted = permuted || !slices.Equal(a.shards[i].live.slab, b.shards[i].live.slab)
		da, err := a.Dump(i)
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.Dump(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(da, db) {
			t.Errorf("shard %d: dumps differ:\n%+v\n%+v", i, da, db)
		}
		if sa, sb := snapshotBytes(t, a.shards[i]), snapshotBytes(t, b.shards[i]); !slices.Equal(sa, sb) {
			t.Errorf("shard %d: snapshots differ:\n%x\n%x", i, sa, sb)
		}
	}
	if !permuted {
		t.Fatal("the slabs hold their records in the same order: the test compares nothing")
	}
	ta, err := a.TenantTotals()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := b.TenantTotals()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ta, tb) {
		t.Errorf("tenant totals differ:\n%+v\n%+v", ta, tb)
	}
}

// snapshotBytes writes sh's snapshot through a log of its own and reads
// the file back. sh must be idle.
func snapshotBytes(t *testing.T, sh *shard) []byte {
	t.Helper()
	dir := t.TempDir()
	l, err := wal.Open(sh.id, wal.Options{Dir: dir, Sync: wal.SyncNone})
	skipNoLog(t, err)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	gen, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(sh.snapshot(gen)); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshot files %v, %v", files, err)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzLiveTable replays an op string against the table and the map: each
// pair of bytes is an operation and its argument, over an id space small
// enough that puts collide, deletions hit and an 8-entry index wraps.
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
