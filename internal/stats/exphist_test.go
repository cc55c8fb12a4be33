package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// expHist is a single-writer histogram over the shared bucket geometry:
// samples counted with ExpBucketOf, quantiles answered by
// ExpQuantileFromBuckets, as obs.Histogram and the slo windows do.
type expHist struct {
	total   uint64
	buckets [ExpBuckets]uint64
}

func (h *expHist) Add(v int64) {
	h.buckets[ExpBucketOf(v)]++
	h.total++
}

func (h *expHist) Quantile(q float64) int64 {
	return ExpQuantileFromBuckets(&h.buckets, h.total, q)
}

// TestExpHistEmpty: every quantile of an empty histogram is 0.
func TestExpHistEmpty(t *testing.T) {
	var h expHist
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
}

// TestExpHistSingleSample: with one sample every quantile answers that
// sample's bucket upper bound.
func TestExpHistSingleSample(t *testing.T) {
	for _, v := range []int64{0, 1, 5, 1000, math.MaxInt64} {
		var h expHist
		h.Add(v)
		want := ExpBucketUpper(ExpBucketOf(v))
		for _, q := range []float64{0.01, 0.5, 0.99, 1} {
			got := h.Quantile(q)
			if got != want {
				t.Errorf("single sample %d: Quantile(%v) = %d, want %d", v, q, got, want)
			}
			if got < v && v != math.MaxInt64 {
				t.Errorf("single sample %d: Quantile(%v) = %d below the sample", v, q, got)
			}
		}
	}
}

// TestExpHistQuantileMonotone: under random fill, p50 ≤ p90 ≤ p99 ≤ p100,
// and each quantile is at least the true order statistic and less than
// twice it (the bucket-upper-bound guarantee).
func TestExpHistQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var h expHist
		n := 1 + rng.Intn(5000)
		samples := make([]int64, n)
		for i := range samples {
			// Mix magnitudes so many buckets populate.
			v := int64(rng.Intn(1 << uint(1+rng.Intn(40))))
			samples[i] = v
			h.Add(v)
		}
		p50, p90, p99, p100 := h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Quantile(1)
		if !(p50 <= p90 && p90 <= p99 && p99 <= p100) {
			t.Fatalf("trial %d: quantiles not monotone: p50=%d p90=%d p99=%d p100=%d", trial, p50, p90, p99, p100)
		}
		// Compare against exact order statistics at ceil-rank.
		sorted := append([]int64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, c := range []struct {
			q   float64
			got int64
		}{{0.50, p50}, {0.90, p90}, {0.99, p99}, {1, p100}} {
			rank := int(math.Ceil(c.q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			exact := sorted[rank-1]
			if c.got < exact {
				t.Fatalf("trial %d: Quantile(%v) = %d below exact %d", trial, c.q, c.got, exact)
			}
			if exact > 0 && c.got >= 2*exact {
				t.Fatalf("trial %d: Quantile(%v) = %d not < 2×exact %d", trial, c.q, c.got, exact)
			}
			if exact == 0 && c.got != 0 {
				t.Fatalf("trial %d: Quantile(%v) = %d, want 0 for exact 0", trial, c.q, c.got)
			}
		}
	}
}

// TestExpHistBucketMath pins the bucket geometry the quantile guarantee
// rests on.
func TestExpHistBucketMath(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
		upper  int64
	}{
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{3, 2, 3},
		{4, 3, 7},
		{1023, 10, 1023},
		{1024, 11, 2047},
		{-5, 0, 0},
		{math.MaxInt64, 63, math.MaxInt64},
	}
	for _, c := range cases {
		if got := ExpBucketOf(c.v); got != c.bucket {
			t.Errorf("ExpBucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		if got := ExpBucketUpper(c.bucket); got != c.upper {
			t.Errorf("ExpBucketUpper(%d) = %d, want %d", c.bucket, got, c.upper)
		}
	}
	if ExpBucketUpper(64) != math.MaxInt64 {
		t.Error("top bucket upper bound must saturate at MaxInt64")
	}
}
