package resd

import (
	"bytes"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/slo"
)

// sloDrillSpec is a second-scale spec for in-process drills: one page
// rule per objective with windows small enough to fire and clear inside
// a test.
func sloDrillSpec() slo.Spec {
	rules := []slo.RuleSpec{{Severity: "page", Burn: 2, Short: "40ms", Long: "120ms"}}
	return slo.Spec{
		Period:       "10ms",
		BudgetWindow: "300ms",
		Objectives: []slo.ObjectiveSpec{
			{Name: "deadline", Signal: "deadline_attainment", Target: 0.9, Rules: rules},
			{Name: "acme-deadline", Signal: "deadline_attainment", Tenant: "acme", Target: 0.9, Rules: rules},
			{Name: "slack", Signal: "slack", Target: 0.5, Bound: 1 << 20, Rules: rules},
			{Name: "success", Signal: "error_rate", Target: 0.9, Rules: rules},
		},
	}
}

func newSLOService(t *testing.T, shards int) (*Service, *slo.Engine, *flight.Recorder) {
	t.Helper()
	reg := obs.NewRegistry()
	rec, err := flight.New(flight.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := slo.New(slo.Config{Spec: sloDrillSpec(), Registry: reg, Journal: rec.Journal()})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{Shards: shards, M: 4, Obs: &ObsConfig{Registry: reg, Flight: rec, SLO: eng}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc, eng, rec
}

// TestSLOBookCountsDecisionsOnce drives requests whose walk visits every
// shard and asserts the reading readSLO hands the engine counts
// request-level decisions, not per-shard attempts.
func TestSLOBookCountsDecisionsOnce(t *testing.T) {
	svc, _, _ := newSLOService(t, 4)
	// Occupy tick 0 fully on every shard so a deadline-0 request is
	// feasible (q=1 fits later) but never in time: every shard says
	// ErrDeadline, and the walk's verdict is one deadline rejection.
	for i := 0; i < 4; i++ {
		if _, err := svc.Admit(Request{Q: 4, Dur: 10, Deadline: NoDeadline}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.Admit(Request{Tenant: "acme", Q: 1, Dur: 1, Deadline: 0}); err == nil {
			t.Fatal("deadline-0 request admitted on a full cluster")
		}
	}
	var smp slo.Sample
	svc.readSLO(&smp)
	if smp.DeadlineRejected != 3 {
		t.Fatalf("DeadlineRejected = %d, want 3 (one per request, not per shard)", smp.DeadlineRejected)
	}
	if smp.Rejected != 3 {
		t.Fatalf("Rejected = %d, want 3", smp.Rejected)
	}
	// The admissions above carried NoDeadline: counted for error_rate,
	// not for deadline attainment.
	if smp.Admitted != 4 {
		t.Fatalf("Admitted = %d, want 4", smp.Admitted)
	}
	if smp.DeadlineAdmitted != 0 {
		t.Fatalf("DeadlineAdmitted = %d, want 0", smp.DeadlineAdmitted)
	}
	if got := smp.TenantDeadline["acme"]; got != [2]uint64{0, 3} {
		t.Fatalf("acme deadline pair = %v, want [0 3]", got)
	}
	if len(smp.TenantDeadline) != 1 {
		t.Fatalf("TenantDeadline = %v, want acme alone: no objective names another tenant", smp.TenantDeadline)
	}
}

// TestSLOEndToEndBurnAndClear is the in-process burn-rate drill: miss
// deadlines hard, watch the page fire (states, /healthz warning,
// journal), recover, watch it clear. The sampler is stopped and its pass
// run a period apart at explicit instants.
func TestSLOEndToEndBurnAndClear(t *testing.T) {
	svc, eng, rec := newSLOService(t, 1)
	clock := stopSampler(svc)
	// Saturate far into the future so deadline-carrying requests miss.
	if _, err := svc.Admit(Request{Q: 4, Dur: 1 << 20, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	sevOf := func(name string) slo.Severity {
		for _, st := range eng.States() {
			if st.Name == name {
				return st.Severity
			}
		}
		t.Fatalf("objective %q missing from States", name)
		return 0
	}
	// The page's long window is twelve periods: it fires within them.
	for i := 0; sevOf("deadline") != slo.SevPage; i++ {
		if i == 50 {
			t.Fatal("deadline objective never paged under sustained misses")
		}
		svc.Admit(Request{Tenant: "acme", Q: 1, Dur: 1, Deadline: 0})
		clock.pass(eng.Period())
	}
	if sevOf("acme-deadline") != slo.SevPage {
		t.Error("tenant-scoped objective did not page with the service-wide one")
	}
	if w := eng.Warning(); w == "" {
		t.Error("Warning() empty while paging")
	}
	if n := rec.Journal().SubsysCount("slo", flight.Error); n == 0 {
		t.Error("no slo page transition journaled")
	}
	// Recovery: stop the bad traffic and let the short window drain.
	for i := 0; sevOf("deadline") != slo.OK; i++ {
		if i == 50 {
			t.Fatal("deadline objective never cleared after traffic stopped")
		}
		clock.pass(eng.Period())
	}
}

// TestSLOWindowedSlack asserts the engine answers windowed slack
// percentiles from the service's merged shard histograms.
func TestSLOWindowedSlack(t *testing.T) {
	svc, eng, _ := newSLOService(t, 1)
	clock := stopSampler(svc)
	// Fill tick 0 so the next admissions are pushed back: nonzero slack.
	if _, err := svc.Admit(Request{Q: 4, Dur: 100, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := svc.Admit(Request{Q: 1, Dur: 1, Deadline: NoDeadline}); err != nil {
			t.Fatal(err)
		}
	}
	clock.pass(eng.Period())
	var buf bytes.Buffer
	if err := svc.cfg.Obs.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var n float64
	if f := exp.Family("resd_slack_ticks_window"); f != nil {
		for _, smp := range f.Samples {
			if smp.Name == "resd_slack_ticks_window_count" {
				n = smp.Value
			}
		}
	}
	if n != 9 {
		t.Fatalf("windowed slack over one period: n=%v, want the 9 admissions", n)
	}
	if v, _ := exp.Value("resd_slack_ticks_window", map[string]string{"quantile": "0.99"}); v < 100 {
		t.Fatalf("windowed slack p99 = %v, want >= 100 (admissions pushed past the blocker)", v)
	}
}

// samplerGoroutines counts the goroutines startSampler created that have
// not exited (started or not: a runnable one's trace names only its
// creator).
func samplerGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by repro/internal/resd.startSampler")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestSamplerCadenceAndClose: a service with both judges armed runs one
// judging goroutine, which Close stops; and a judge whose period is
// longer than the sampler's tick runs no more often than its period.
func TestSamplerCadenceAndClose(t *testing.T) {
	before := samplerGoroutines()
	rec, err := flight.New(flight.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := slo.New(slo.Config{Spec: sloDrillSpec()})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{M: 4, Obs: &ObsConfig{Flight: rec, SLO: eng}})
	if err != nil {
		t.Fatal(err)
	}
	if n := samplerGoroutines() - before; n != 1 {
		t.Fatalf("a service with a recorder and an engine runs %d judging goroutines, want 1", n)
	}
	svc.Close()
	select {
	case <-svc.sampler.done:
	default:
		t.Fatal("Close returned with the sampler still running")
	}
	for deadline := time.Now().Add(5 * time.Second); samplerGoroutines() != before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d sampler goroutines after Close, want %d", samplerGoroutines(), before)
		}
		time.Sleep(time.Millisecond)
	}

	// The recorder's 1ms against the engine's 20ms: the sampler ticks
	// every millisecond, and the slow judge runs once per period at most.
	const period = 20 * time.Millisecond
	var fast atomic.Int64
	var slow []time.Time // written by the sampler, read after close
	start := time.Now()
	sp := startSampler([]judge{
		{time.Millisecond, func(time.Time) { fast.Add(1) }},
		{period, func(now time.Time) { slow = append(slow, now) }},
	})
	for fast.Load() < 100 && time.Since(start) < 10*time.Second {
		time.Sleep(time.Millisecond)
	}
	sp.close()
	elapsed := time.Since(start)
	ran := fast.Load()
	if max := int(elapsed/period) + 1; len(slow) == 0 || len(slow) > max {
		t.Fatalf("the %v judge ran %d times in %v, want 1..%d", period, len(slow), elapsed, max)
	}
	if int(ran) <= len(slow) {
		t.Fatalf("the 1ms judge ran %d times, the %v one %d", ran, period, len(slow))
	}
	time.Sleep(5 * time.Millisecond)
	if fast.Load() != ran {
		t.Fatal("a judge ran after the sampler closed")
	}
}
