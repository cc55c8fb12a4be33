package core

import (
	"cmp"
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzSortByKeyMatchesStable: SortByKey puts any input in the order
// slices.SortStableFunc gives it by the same key, ties included.
//
// The input is n (mod 1024, so both the insertion and the radix path are
// in reach), a shift and the key bytes: key i is the little-endian int64
// at byte 8i of the data, cycled, shifted right arithmetically by shift
// (mod 64) so that the keys share their high bytes or tie. The committed
// seeds are in testdata/fuzz/FuzzSortByKeyMatchesStable: all-equal-keys,
// small-n-cutoff-below, -at and -above (n = radixMin−1, radixMin,
// radixMin+1), negative-times and max-int64.
func FuzzSortByKeyMatchesStable(f *testing.F) {
	type elem struct {
		key Time
		pos int
	}
	f.Fuzz(func(t *testing.T, nRaw uint16, shift uint8, data []byte) {
		n := int(nRaw) % 1024
		got := make([]elem, n)
		for i := range got {
			var k uint64
			if len(data) > 0 {
				var w [8]byte
				for b := range w {
					w[b] = data[(8*i+b)%len(data)]
				}
				k = binary.LittleEndian.Uint64(w[:])
			}
			got[i] = elem{Time(int64(k) >> (shift % 64)), i}
		}
		want := slices.Clone(got)
		slices.SortStableFunc(want, func(a, b elem) int { return cmp.Compare(a.key, b.key) })
		SortByKey(got, func(e elem) uint64 { return SortKey(int64(e.key)) })
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d shift=%d:\n got  %v\n want %v", n, shift%64, got, want)
		}
	})
}
