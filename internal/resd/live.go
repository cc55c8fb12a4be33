package resd

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/core"
)

// resv is one live reservation as a shard keeps it: 32 bytes, no
// pointers, so the collector never looks inside the slab. key is the id
// plus one; no minted id is all ones. cell is the position of the
// reservation's tenant cell in shard.cells.
type resv struct {
	key        uint64
	start, dur core.Time
	q          int32
	cell       uint32
}

func (r resv) id() ID { return ID(r.key - 1) }

const (
	// The index doubles when an insertion would leave more than
	// liveLoadNum of every liveLoadDen entries in use. At 3/4 a linear
	// probe that hits takes some 2.5 steps and one that misses 8.5 on
	// uniformly hashed keys; sequential ids hash more evenly than that.
	liveLoadNum, liveLoadDen = 3, 4
	liveMinSlots             = 8

	// fibMul is 2^64/φ: the top bits of x·fibMul spread consecutive x —
	// what a shard mints — evenly over the index.
	fibMul = 0x9E3779B97F4A7C15
)

// liveTable is a shard's live reservations: a dense slab of records in
// no particular order (dump and the snapshot encoder sort by id) and an
// open-addressed index of slab positions plus one, 0 empty, keyed by id:
// linear probing, power-of-two size, 5–11 bytes a record. A deletion
// moves the last record into the hole and shifts the rest of the run
// back, leaving no tombstone, so churn at constant occupancy never
// rehashes nor lengthens a probe. The zero value is an empty table.
type liveTable struct {
	slab  []resv
	index []int32 // int32: 2³¹ records would be 64 GiB of slab
	shift uint8   // 64 − log2(len(index)/2), see home

	// charged names the tenant of each reservation booked in a cell of
	// another name: OverflowTenant's, for names past the cap. Nil until
	// there is one; the table does not look at it.
	charged map[ID]string
}

// home is the entry a key's probe starts at: a Fibonacci hash of all but
// its lowest bit picks an aligned pair of entries and the lowest bit the
// entry in it, so ids minted one after the other sit side by side.
func (t *liveTable) home(key uint64) int {
	return int((key>>1)*fibMul>>t.shift)<<1 | int(key&1)
}

// find returns the slab position of id's record, or -1.
func (t *liveTable) find(id ID) int {
	if len(t.slab) == 0 {
		return -1
	}
	key, mask := uint64(id)+1, len(t.index)-1
	for i := t.home(key); t.index[i] != 0; i = (i + 1) & mask {
		if p := t.index[i] - 1; t.slab[p].key == key {
			return int(p)
		}
	}
	return -1
}

// put adds a reservation whose id is not in the table.
func (t *liveTable) put(r resv) {
	if (len(t.slab)+1)*liveLoadDen > len(t.index)*liveLoadNum {
		t.reserve(len(t.slab) + 1)
	}
	t.slab = append(t.slab, r)
	t.index[t.seek(r.key, 0)] = int32(len(t.slab))
}

// seek returns the first entry on key's probe that holds e: with e = 0
// where a new entry goes, with e = p+1 where slab position p is named.
func (t *liveTable) seek(key uint64, e int32) int {
	i, mask := t.home(key), len(t.index)-1
	for t.index[i] != e {
		i = (i + 1) & mask
	}
	return i
}

// reserve makes room for n reservations in all, so that neither the
// index nor the slab is reallocated before the table holds more than n.
func (t *liveTable) reserve(n int) {
	t.slab = slices.Grow(t.slab, n-len(t.slab))
	size := max(len(t.index), liveMinSlots)
	for n*liveLoadDen > size*liveLoadNum {
		size *= 2
	}
	if size > len(t.index) {
		t.index = make([]int32, size)
		t.shift = uint8(65 - bits.TrailingZeros(uint(size)))
		t.reindex()
	}
}

// sortByID puts the slab in id order and indexes it again, as a table
// that was handed its records in that order would hold them.
func (t *liveTable) sortByID() {
	slices.SortFunc(t.slab, func(a, b resv) int { return cmp.Compare(a.key, b.key) })
	clear(t.index)
	t.reindex()
}

// reindex enters every slab position in an empty index.
func (t *liveTable) reindex() {
	for p, r := range t.slab {
		t.index[t.seek(r.key, 0)] = int32(p + 1)
	}
}

// delAt removes the record at slab position p, which find returned. Each
// later entry of its run moves back into the emptied entry unless that
// would put it before its home, so every entry stays reachable from its
// home without crossing an empty one; then the last record fills p.
func (t *liveTable) delAt(p int) {
	i, mask := t.seek(t.slab[p].key, int32(p+1)), len(t.index)-1
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		if (j-t.home(t.slab[t.index[j]-1].key))&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
	if last := len(t.slab) - 1; p != last {
		t.index[t.seek(t.slab[last].key, int32(last+1))] = int32(p + 1)
		t.slab[p] = t.slab[last]
	}
	t.slab = t.slab[:len(t.slab)-1]
}

// chargeTo notes that id, which put added, is charged to tenant rather
// than to its cell's name.
func (t *liveTable) chargeTo(id ID, tenant string) {
	if t.charged == nil {
		t.charged = make(map[ID]string)
	}
	t.charged[id] = tenant
}
