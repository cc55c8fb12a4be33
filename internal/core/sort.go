package core

// radixMin is the shortest slice SortByKey radix-sorts. Below it a radix
// pass's 256 buckets and the scratch slice cost more than the n²/4 moves
// of an insertion sort whose keys sit on the stack: on random times the
// two cross between 96 and 128 elements.
const radixMin = 128

// SortKey maps an int64 (a Time, a length, a width) onto a uint64 with the
// same order: the sign bit flipped, so that unsigned order is signed
// order. A descending rule passes ^v, which reverses the order of every
// int64 (where -v overflows at math.MinInt64).
func SortKey(v int64) uint64 { return uint64(v) ^ 1<<63 }

// keyed is an element beside its key in SortByKey's scratch slice.
type keyed[T any] struct {
	k uint64
	v T
}

// SortByKey sorts s stably in increasing order of key: elements with equal
// keys keep their order, so a caller that wants a tie-break lays the
// elements out in that order first, as a less significant digit.
//
// Below radixMin elements it is an insertion sort over keys held on the
// stack, and allocates nothing. From there on it is an LSD radix sort with
// one scratch slice of n (key, element) pairs: one O(n) pass per key byte,
// skipping the bytes every key shares, so keys that differ only in their
// low 16 bits cost two passes. The passes alternate between the scratch,
// which holds each key beside its element, and s, which holds the elements
// alone (a pass out of s computes the keys again); each pass counts the
// next one's byte as it goes.
func SortByKey[T any](s []T, key func(T) uint64) {
	n := len(s)
	if n < radixMin {
		var keys [radixMin]uint64
		for i, v := range s {
			keys[i] = key(v)
		}
		for i := 1; i < n; i++ {
			k, v, j := keys[i], s[i], i
			for ; j > 0 && keys[j-1] > k; j-- {
				keys[j], s[j] = keys[j-1], s[j-1]
			}
			keys[j], s[j] = k, v
		}
		return
	}
	buf := make([]keyed[T], n)
	same, varies := ^uint64(0), uint64(0) // bits every key has, bits any key has
	for i, v := range s {
		k := key(v)
		buf[i] = keyed[T]{k, v}
		same, varies = same&k, varies|k
	}
	var shifts [8]uint // the bytes some keys differ in, lowest first
	passes := 0
	for shift := uint(0); shift < 64; shift += 8 {
		if (same^varies)>>shift&0xff != 0 {
			shifts[passes] = shift
			passes++
		}
	}
	var at [256]int
	for _, e := range buf {
		at[e.k>>shifts[0]&0xff]++
	}
	for p := 0; p < passes; p++ {
		// After the last pass, next names a byte no pass reads.
		shift, next := shifts[p], shifts[(p+1)%8]
		sum := 0
		for b := range at {
			at[b], sum = sum, sum+at[b]
		}
		var count [256]int
		if p%2 == 0 {
			for _, e := range buf {
				b := e.k >> shift & 0xff
				s[at[b]] = e.v
				at[b]++
				count[e.k>>next&0xff]++
			}
		} else {
			for _, v := range s {
				k := key(v)
				b := k >> shift & 0xff
				buf[at[b]] = keyed[T]{k, v}
				at[b]++
				count[k>>next&0xff]++
			}
		}
		at = count
	}
	if passes%2 == 0 { // the last pass, if any, wrote the scratch
		for i, e := range buf {
			s[i] = e.v
		}
	}
}
