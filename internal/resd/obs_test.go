package resd

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tenant"
)

// TestObsMetricsEndToEnd drives an instrumented service and checks the
// acceptance surface of a scrape: per-shard queue depth, ops/batch,
// admission outcomes, per-tenant quota gauges and
// slack quantiles — all present, all strictly parseable.
func TestObsMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	quotas, err := tenant.New(tenant.PrefixCapacity(2, 8, 0, 1<<20), tenant.Spec{
		Tenants: []tenant.TenantSpec{{Name: "acme", Share: 0.5}, {Name: "zeta", Share: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{
		Shards: 2,
		M:      8,
		Quotas: quotas,
		Obs:    &ObsConfig{Registry: reg, TraceSample: 1},
	})

	if _, err := s.Admit(Request{Tenant: "acme", Q: 4, Dur: 10, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	r2, err := s.Admit(Request{Tenant: "zeta", Q: 4, Dur: 10, Deadline: NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(Request{Tenant: "acme", Q: 8, Dur: 1 << 19, Deadline: 0}); err == nil {
		t.Fatal("deadline rejection expected")
	}
	if err := s.Cancel(r2.ID); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("scrape does not parse strictly: %v\n%s", err, buf.String())
	}

	admitted := 0.0
	for _, sh := range []string{"0", "1"} {
		if _, ok := exp.Value("resd_shard_queue_depth", map[string]string{"shard": sh}); !ok {
			t.Errorf("no queue depth for shard %s", sh)
		}
		if _, ok := exp.Value("resd_shard_ops_per_batch", map[string]string{"shard": sh}); !ok {
			t.Errorf("no ops/batch for shard %s", sh)
		}
		for _, reason := range []string{"capacity", "deadline", "quota"} {
			if _, ok := exp.Value("resd_rejected_total", map[string]string{"shard": sh, "reason": reason}); !ok {
				t.Errorf("no rejected{%s,%s}", sh, reason)
			}
		}
		for _, q := range []string{"0.5", "0.9", "0.99"} {
			if _, ok := exp.Value("resd_slack_ticks", map[string]string{"shard": sh, "quantile": q}); !ok {
				t.Errorf("no slack quantile %s for shard %s", q, sh)
			}
		}
		if v, ok := exp.Value("resd_admitted_total", map[string]string{"shard": sh}); ok {
			admitted += v
		} else {
			t.Errorf("no admitted_total for shard %s", sh)
		}
	}
	if admitted != 2 {
		t.Errorf("admitted_total sums to %v, want 2", admitted)
	}
	dl := 0.0
	for _, sh := range []string{"0", "1"} {
		v, _ := exp.Value("resd_rejected_total", map[string]string{"shard": sh, "reason": "deadline"})
		dl += v
	}
	if dl == 0 {
		t.Error("deadline rejection not counted on any shard")
	}
	for _, ten := range []string{"acme", "zeta"} {
		for _, fam := range []string{"tenant_quota_budget", "tenant_quota_used", "tenant_quota_admitted_total"} {
			if _, ok := exp.Value(fam, map[string]string{"tenant": ten}); !ok {
				t.Errorf("no %s for tenant %s", fam, ten)
			}
		}
	}
	if v, ok := exp.Value("resd_traces_sampled_total", nil); !ok || v != 3 {
		t.Errorf("traces sampled = %v, %v (want 3: every ReserveFor call)", v, ok)
	}
	if _, ok := exp.Value("resd_loop_turn_ns", map[string]string{"shard": "0", "quantile": "0.99"}); !ok {
		t.Error("no loop-turn latency summary")
	}
}

// TestAdmissionTraces checks the sampled trace pipeline: stage
// monotonicity, outcome classification, the slow-request log hook, and
// the Traces accessor /debug/flight serves.
func TestAdmissionTraces(t *testing.T) {
	var mu sync.Mutex
	var slow []TraceRecord
	s := mustNew(t, Config{M: 8, Obs: &ObsConfig{
		TraceSample:   1,
		SlowThreshold: time.Nanosecond, // everything is "slow": the hook must fire
		SlowLog: func(r TraceRecord) {
			mu.Lock()
			slow = append(slow, r)
			mu.Unlock()
		},
	}})
	r, err := s.Admit(Request{Tenant: "acme", Ready: 5, Q: 4, Dur: 10, Deadline: NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(Request{Tenant: "acme", Q: 8, Dur: 10, Deadline: 0}); err == nil {
		// First admission holds [5,15) across half the machine; a full-width
		// request with deadline 0 must miss it.
		t.Fatal("deadline rejection expected")
	}

	traces := s.Traces(0)
	if len(traces) != 2 {
		t.Fatalf("Traces = %d records, want 2", len(traces))
	}
	adm, rej := traces[0], traces[1]
	if adm.Seq >= rej.Seq {
		t.Errorf("trace seqs out of order: %d then %d", adm.Seq, rej.Seq)
	}
	if adm.Outcome != TraceAdmitted || adm.Start != r.Start || adm.Shard != 0 || adm.Tenant != "acme" {
		t.Errorf("admitted trace = %+v", adm)
	}
	if rej.Outcome != TraceRejectedDeadline {
		t.Errorf("rejected trace outcome = %v", rej.Outcome)
	}
	for _, tr := range traces {
		if !(tr.Route >= 0 && tr.Enqueue >= tr.Route && tr.BatchStart >= tr.Enqueue && tr.Decision >= tr.BatchStart) {
			t.Errorf("stages not monotone: %+v", tr)
		}
		if tr.Arrival.IsZero() {
			t.Errorf("zero arrival: %+v", tr)
		}
	}
	// SlowLog is asynchronous by contract (a bounded dispatch queue), so
	// wait for the two records rather than asserting instantly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		nslow := len(slow)
		mu.Unlock()
		if nslow == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("slow log saw %d records, want 2", nslow)
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.Traces(1); len(got) != 1 || got[0].Seq != rej.Seq {
		t.Errorf("Traces(1) = %+v, want just the newest", got)
	}
}

// TestTraceRingBounds: the ring keeps only the newest TraceRingLen
// records and sampling 1-in-N records roughly 1/N of traffic.
func TestTraceRingBounds(t *testing.T) {
	s := mustNew(t, Config{M: 8, Obs: &ObsConfig{TraceSample: 1}})
	const n = TraceRingLen + 6
	ids := make([]ID, 0, n)
	for i := 0; i < n; i++ {
		r, err := s.Admit(Request{Q: 1, Dur: 1, Deadline: NoDeadline})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID)
	}
	traces := s.Traces(0)
	if len(traces) != TraceRingLen {
		t.Fatalf("ring holds %d, want %d", len(traces), TraceRingLen)
	}
	for i := 1; i < len(traces); i++ {
		if traces[i].Seq != traces[i-1].Seq+1 {
			t.Fatalf("ring not chronological: %+v", traces)
		}
	}
	if traces[len(traces)-1].Seq != n {
		t.Errorf("newest seq = %d, want %d", traces[len(traces)-1].Seq, n)
	}
	for _, id := range ids {
		if err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}

	// 1-in-4 sampling: 8 requests → 2 samples.
	s4 := mustNew(t, Config{M: 8, Obs: &ObsConfig{TraceSample: 4}})
	for i := 0; i < 8; i++ {
		if _, err := s4.Admit(Request{Q: 1, Dur: 1, Deadline: NoDeadline}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s4.Traces(0)); got != 2 {
		t.Errorf("1-in-4 sampling of 8 requests left %d traces, want 2", got)
	}

	// Tracing disabled: no records, no cost.
	s0 := mustNew(t, Config{M: 8})
	if _, err := s0.Admit(Request{Q: 1, Dur: 1, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	if got := s0.Traces(0); got != nil {
		t.Errorf("disabled tracing returned %+v", got)
	}
}
