package resd

import (
	"math/bits"

	"repro/internal/core"
)

// resv is one live reservation as a shard keeps it: 32 bytes, no
// pointers, so the collector never looks inside the table. key is the id
// plus one — zero marks an empty slot, and no minted id is all ones.
// cell is the position of the reservation's tenant cell in shard.cells.
type resv struct {
	key        uint64
	start, dur core.Time
	q          int32
	cell       uint32
}

func (r resv) id() ID { return ID(r.key - 1) }

const (
	// The table doubles when an insertion would leave more than
	// liveLoadNum of every liveLoadDen slots in use. At 3/4 a linear
	// probe that hits takes some 2.5 steps and one that misses 8.5 on
	// uniformly hashed keys; sequential ids hash more evenly than that.
	liveLoadNum, liveLoadDen = 3, 4
	liveMinSlots             = 8

	// fibMul is 2^64/φ: the top bits of x·fibMul spread consecutive x —
	// what a shard mints — evenly over the table.
	fibMul = 0x9E3779B97F4A7C15
)

// liveTable is a shard's live reservations: an open-addressed table
// keyed by id, linear probing, power-of-two size. A deletion shifts the
// rest of its run back over the hole and leaves no tombstone, so a
// shard that admits and cancels at constant occupancy never rehashes
// and its probes never lengthen. It only grows. The zero value is an
// empty table.
type liveTable struct {
	slots []resv
	n     int
	shift uint8 // 64 − log2(len(slots)/2), see home

	// charged names the tenant of each reservation that is booked in a
	// cell of another name — the ones OverflowTenant's cell holds for
	// names past the cap. Nil until there is one; the table does not
	// look at it.
	charged map[ID]string
}

// home is the slot a key's probe starts at: a Fibonacci hash of all but
// its lowest bit picks an aligned pair of slots — one cache line — and
// the lowest bit the slot in it. Two ids minted one after the other thus
// share a line, and of two admissions only one misses the cache.
func (t *liveTable) home(key uint64) int {
	return int((key>>1)*fibMul>>t.shift)<<1 | int(key&1)
}

// find returns the slot holding id, or -1.
func (t *liveTable) find(id ID) int {
	if t.n == 0 {
		return -1
	}
	key, mask := uint64(id)+1, len(t.slots)-1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// put adds a reservation whose id is not in the table.
func (t *liveTable) put(r resv) {
	if (t.n+1)*liveLoadDen > len(t.slots)*liveLoadNum {
		t.reserve(t.n + 1)
	}
	t.place(r)
	t.n++
}

func (t *liveTable) place(r resv) {
	mask := len(t.slots) - 1
	i := t.home(r.key)
	for t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = r
}

// reserve makes room for n reservations in all, so that no put rehashes
// before the table holds more than n.
func (t *liveTable) reserve(n int) {
	size := max(len(t.slots), liveMinSlots)
	for n*liveLoadDen > size*liveLoadNum {
		size *= 2
	}
	if size == len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]resv, size)
	t.shift = uint8(65 - bits.TrailingZeros(uint(size)))
	for _, r := range old {
		if r.key != 0 {
			t.place(r)
		}
	}
}

// delAt empties slot i, which find returned. Each later record of the
// run moves back into the hole unless that would put it before its home
// slot, so every record stays reachable from its home without crossing
// an empty slot.
func (t *liveTable) delAt(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = resv{}
	t.n--
}

// chargeTo notes that id, which put added, is charged to tenant rather
// than to its cell's name.
func (t *liveTable) chargeTo(id ID, tenant string) {
	if t.charged == nil {
		t.charged = make(map[ID]string)
	}
	t.charged[id] = tenant
}
