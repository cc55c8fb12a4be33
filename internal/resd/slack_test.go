package resd

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// TestSlackHist checks the shard's slack histogram as ShardStats reads
// it: the p99 is a bucket's upper bound.
func TestSlackHist(t *testing.T) {
	p99 := func(h *obs.Histogram) core.Time { return core.Time(h.Quantile(0.99)) }
	add := func(h *obs.Histogram, slack core.Time) { h.Observe(int64(slack)) }
	var h obs.Histogram
	if p99(&h) != 0 {
		t.Fatalf("empty hist p99 = %v", p99(&h))
	}
	add(&h, 0)
	if p99(&h) != 0 {
		t.Fatalf("all-zero hist p99 = %v", p99(&h))
	}
	// One large sample among fifty zeros is ~2% of the stream: the p99
	// rank lands on it.
	for i := 0; i < 49; i++ {
		add(&h, 0)
	}
	add(&h, 1000) // bucket 10: [512, 1024)
	if got := p99(&h); got != 1023 {
		t.Fatalf("p99 = %v, want 1023 (bucket upper bound)", got)
	}
	// A much rarer outlier — one in several hundred — stays below the p99
	// rank and must not be reported.
	for i := 0; i < 450; i++ {
		add(&h, 0)
	}
	if got := p99(&h); got != 0 {
		t.Fatalf("p99 with a sub-1%% outlier = %v, want 0", got)
	}
	// The estimate brackets the truth: at least the true p99, under 2×.
	var g obs.Histogram
	for i := 0; i < 100; i++ {
		add(&g, 5)
	}
	if got := p99(&g); got < 5 || got > 11 {
		t.Fatalf("p99 of constant 5 = %v, want within [5, 2·5+1]", got)
	}
	if top := core.Time(stats.ExpBucketUpper(64)); top != core.Infinity {
		t.Fatalf("top bucket upper = %v", top)
	}
}

// TestSlackStatsSurfaces checks the SLO metric end to end in-process: an
// admission pushed back by a full window records its slack, and the
// shard-level p99 reports it.
func TestSlackStatsSurfaces(t *testing.T) {
	s := mustNew(t, Config{M: 8})
	if _, err := s.Admit(Request{Tenant: "acme", Q: 8, Dur: 10, Deadline: NoDeadline}); err != nil { // slack 0
		t.Fatal(err)
	}
	r2, err := s.Admit(Request{Tenant: "acme", Q: 8, Dur: 10, Deadline: NoDeadline}) // pushed to start 10: slack 10
	if err != nil {
		t.Fatal(err)
	}
	if r2.Start != 10 {
		t.Fatalf("second admission starts at %v, want 10", r2.Start)
	}
	// Slack 10 lives in bucket 4 ([8,16)), whose upper bound is 15; two
	// samples put the p99 rank on the larger one.
	if got := s.Stats()[0].SlackP99; got != 15 {
		t.Fatalf("ShardStats.SlackP99 = %v, want 15", got)
	}
}
