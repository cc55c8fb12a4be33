package resd

import (
	"repro/internal/core"
	"repro/internal/stats"
)

// slackHist records start-time slack (start − ready, in ticks) in a
// stats.ExpHist: bucket b collects slacks whose bit length is b, so
// bucket 0 is exactly slack 0 and bucket b covers [2^(b−1), 2^b). It
// gives an O(1)-update, O(1)-memory quantile whose answer is the
// bucket's upper bound — at least the true quantile and less than twice
// it — which is the right fidelity for an SLO surface read out of a hot
// path: the operator question is "what order of push-back are this
// tenant's admissions seeing", not its exact tick count. The same bucket
// geometry backs the obs package's multi-writer Histogram, so
// shard-owned and scrape-side quantiles agree.
type slackHist struct {
	h stats.ExpHist
}

// add records one slack sample (non-negative by construction: an
// admission never starts before its ready time).
func (h *slackHist) add(slack core.Time) { h.h.Add(int64(slack)) }

// p99 returns the upper bound of the bucket holding the 99th-percentile
// sample, or 0 when nothing was recorded.
func (h *slackHist) p99() core.Time { return h.quantile(0.99) }

// quantile generalises p99 to any q in (0,1]; stats.ExpHist saturates
// its top buckets at MaxInt64, which is exactly core.Infinity.
func (h *slackHist) quantile(q float64) core.Time {
	return core.Time(h.h.Quantile(q))
}

// bucketUpper is the largest slack a bucket admits.
func bucketUpper(b int) core.Time {
	return core.Time(stats.ExpBucketUpper(b))
}
