package stats

import (
	"math"
	"math/bits"
)

// ExpBuckets is the number of buckets in an exponential histogram: one
// bucket per possible bit length of a non-negative int64 sample (0..64).
// Bucket b collects values whose bit length is b, so bucket 0 is exactly
// the value 0 and bucket b covers [2^(b−1), 2^b). Updates and quantile
// reads are O(1) in the sample count (a quantile scans the 65 buckets
// once), and the memory footprint is constant. A quantile answer is the
// upper bound of the bucket holding the ranked sample: at least the true
// quantile and less than twice it. obs.Histogram counts in these buckets,
// and the slo package's windowed summaries answer from their deltas.
const ExpBuckets = 65

// ExpBucketOf returns the bucket index a sample lands in (negative
// samples clamp to bucket 0).
func ExpBucketOf(v int64) int {
	if v < 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// ExpBucketUpper is the largest value bucket b admits: 0 for bucket 0,
// 2^b − 1 in general, and MaxInt64 for the top buckets whose bound does
// not fit a signed 64-bit value.
func ExpBucketUpper(b int) int64 {
	switch {
	case b <= 0:
		return 0
	case b >= 63:
		return math.MaxInt64
	default:
		return int64(1)<<b - 1
	}
}

// ExpQuantileFromBuckets returns the upper bound of the bucket holding the
// q-quantile sample (0 < q ≤ 1) of a bucket snapshot holding total samples
// (e.g. one copied out of atomic counters), or 0 when it is empty. The
// rank is ceil(q·total), so quantile 1 is an upper bound on the maximum
// and successive quantiles are monotone: q ≤ q' implies a quantile at q no
// larger than at q'.
func ExpQuantileFromBuckets(buckets *[ExpBuckets]uint64, total uint64, q float64) int64 {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for b, n := range buckets {
		cum += n
		if cum >= rank {
			return ExpBucketUpper(b)
		}
	}
	return ExpBucketUpper(ExpBuckets - 1)
}
