package slo

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/stats"
)

// fakeCounters is a hand-cranked cumulative (good, total) pair.
type fakeCounters struct {
	good, total atomic.Uint64
}

// deadline fills s with f as the service-wide deadline pair.
func (f *fakeCounters) deadline(s *Sample) {
	good := f.good.Load()
	s.DeadlineAdmitted, s.DeadlineRejected = good, f.total.Load()-good
}

// sample is one reading of f as the service-wide deadline pair.
func (f *fakeCounters) sample() *Sample {
	var s Sample
	f.deadline(&s)
	return &s
}

func (f *fakeCounters) add(good, bad uint64) {
	f.good.Add(good)
	f.total.Add(good + bad)
}

// drillSpec is the shape the CI drill uses: second-scale windows so a
// test (or smoke job) can drive transitions in real time — here driven
// entirely by a fake clock.
func drillSpec() Spec {
	return Spec{
		Period:       "1s",
		BudgetWindow: "30s",
		Objectives: []ObjectiveSpec{{
			Name:   "deadline",
			Signal: "deadline_attainment",
			Target: 0.9,
			Rules: []RuleSpec{
				{Severity: "page", Burn: 5, Short: "2s", Long: "6s"},
				{Severity: "warn", Burn: 2, Short: "4s", Long: "10s"},
			},
		}},
	}
}

// newTestEngine builds an engine over drillSpec, attached to fake
// counters and ticked at explicit instants, and returns the crank:
// advance(good, bad) adds events and ticks one period over their reading.
func newTestEngine(t *testing.T, cfg Config) (*Engine, *fakeCounters, func(good, bad uint64) time.Time) {
	t.Helper()
	if cfg.Spec.Objectives == nil {
		cfg.Spec = drillSpec()
	}
	now := time.Unix(1000, 0)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeCounters{}
	if err := e.Attach(now, f.sample()); err != nil { // baseline at the test's clock
		t.Fatal(err)
	}
	advance := func(good, bad uint64) time.Time {
		f.add(good, bad)
		now = now.Add(e.Period())
		e.Tick(now, f.sample())
		return now
	}
	return e, f, advance
}

func sev(t *testing.T, e *Engine, name string) Severity {
	t.Helper()
	for _, st := range e.States() {
		if st.Name == name {
			return st.Severity
		}
	}
	t.Fatalf("objective %q not in States()", name)
	return OK
}

func TestEngineFiresAndClears(t *testing.T) {
	e, _, advance := newTestEngine(t, Config{})
	// Healthy traffic: 100 good/s, no transitions.
	for i := 0; i < 12; i++ {
		advance(100, 0)
		if got := sev(t, e, "deadline"); got != OK {
			t.Fatalf("healthy traffic drove severity to %v", got)
		}
	}
	// All-bad traffic: errFrac 1.0, burn 10× (budget 0.1) — past the
	// page rule once both 2s and 6s windows are saturated.
	for i := 0; i < 7; i++ {
		advance(0, 100)
	}
	if got := sev(t, e, "deadline"); got != SevPage {
		t.Fatalf("sustained bad traffic: severity %v, want page", got)
	}
	if w := e.Warning(); !strings.Contains(w, "deadline") || !strings.Contains(w, "page") {
		t.Fatalf("Warning() = %q, want it to name the paging objective", w)
	}
	var paged State
	for _, st := range e.States() {
		if st.Name == "deadline" {
			paged = st
		}
	}
	if paged.BurnMax < 5 {
		t.Fatalf("BurnMax %v while paging at burn threshold 5", paged.BurnMax)
	}
	if paged.Attainment > 0.9 {
		t.Fatalf("Attainment %v after sustained bad traffic", paged.Attainment)
	}
	// Recovery: good traffic drains the short window first (multi-window
	// reset), and eventually the warn windows too.
	for i := 0; i < 30; i++ {
		advance(100, 0)
	}
	if got := sev(t, e, "deadline"); got != OK {
		t.Fatalf("after recovery: severity %v, want ok", got)
	}
	if w := e.Warning(); w != "" {
		t.Fatalf("Warning() = %q after recovery, want empty", w)
	}
}

func TestEngineShortWindowResetsBeforeLong(t *testing.T) {
	e, _, advance := newTestEngine(t, Config{})
	for i := 0; i < 7; i++ {
		advance(0, 100)
	}
	if got := sev(t, e, "deadline"); got != SevPage {
		t.Fatalf("severity %v, want page", got)
	}
	// A couple of good periods drain the 2s short window below the page
	// threshold while the 6s long window still carries the burn: the
	// page must clear (down to warn — the warn rule's 4s short window
	// is still hot) long before the long window drains.
	advance(100, 0)
	advance(100, 0)
	advance(100, 0)
	if got := sev(t, e, "deadline"); got == SevPage {
		t.Fatal("page still firing after the short window drained — multi-window reset broken")
	}
}

func TestEngineZeroTrafficNeverPages(t *testing.T) {
	e, _, advance := newTestEngine(t, Config{})
	for i := 0; i < 20; i++ {
		advance(0, 0)
	}
	states := e.States()
	if states[0].Severity != OK || states[0].Attainment != 1 || states[0].BudgetRemaining != 1 {
		t.Fatalf("zero traffic: %+v, want ok/1/1", states[0])
	}
	if states[0].BurnMax != 0 {
		t.Fatalf("zero traffic BurnMax = %v, want 0", states[0].BurnMax)
	}
}

func TestEngineTransitionsJournaledAndCallback(t *testing.T) {
	j := flight.NewJournal(64, nil)
	var calls []string
	cfg := Config{
		Journal: j,
		OnAlert: func(objective string, from, to Severity, burn float64) {
			calls = append(calls, objective+":"+from.String()+"->"+to.String())
		},
	}
	e, _, advance := newTestEngine(t, cfg)
	for i := 0; i < 7; i++ {
		advance(0, 100)
	}
	if got := sev(t, e, "deadline"); got != SevPage {
		t.Fatalf("severity %v, want page", got)
	}
	for i := 0; i < 30; i++ {
		advance(100, 0)
	}
	if len(calls) < 2 {
		t.Fatalf("OnAlert calls %v, want at least fire+clear", calls)
	}
	if calls[len(calls)-1] != "deadline:warn->ok" && calls[len(calls)-1] != "deadline:page->ok" {
		t.Fatalf("last transition %q, want a clear to ok", calls[len(calls)-1])
	}
	if j.SubsysCount("slo", flight.Error) == 0 {
		t.Fatal("page transition not journaled at error severity")
	}
	var found bool
	for _, ev := range j.Tail(0) {
		if ev.Subsys != "slo" || ev.Msg != "slo alert state changed" {
			continue
		}
		for _, kv := range ev.KV {
			if kv.K == "to" && kv.V == "page" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no journal event records the transition to page")
	}
}

func TestEngineMetricsFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	e, _, advance := newTestEngine(t, Config{Registry: reg})
	for i := 0; i < 7; i++ {
		advance(0, 100)
	}
	want := map[string]bool{
		"resd_slo_attainment":              false,
		"resd_slo_error_budget_remaining":  false,
		"resd_slo_burn_rate":               false,
		"resd_slo_alert_state":             false,
		"resd_slo_alert_transitions_total": false,
	}
	var alertState float64
	for _, s := range reg.Gather() {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
		if s.Name == "resd_slo_alert_state" {
			alertState = s.Value
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("family %s not exposed", name)
		}
	}
	if alertState != 2 {
		t.Errorf("resd_slo_alert_state = %v while paging, want 2", alertState)
	}
	if got := sev(t, e, "deadline"); got != SevPage {
		t.Fatalf("severity %v, want page", got)
	}
}

func TestEngineTrackHistogramWindowedQuantiles(t *testing.T) {
	reg := obs.NewRegistry()
	spec := drillSpec()
	e, err := New(Config{Spec: spec, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	var hist obs.Histogram
	sample := func() *Sample {
		var s Sample
		hist.Snapshot(&s.Slack)
		return &s
	}
	now := time.Unix(2000, 0)
	if err := e.Attach(now, sample()); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := windowQuantileOf(e, "resd_loop_turn_ns", 0.5); ok {
		t.Fatal("turn latency tracked for a service that does not time its turns")
	}
	// Early era: large slacks. Then a long quiet era, then small slacks.
	// The windowed p99 must forget the early era once it ages out of the
	// 30s budget window — the thing the process-lifetime summary cannot do.
	for i := 0; i < 100; i++ {
		hist.Observe(1 << 20)
	}
	now = now.Add(time.Second)
	e.Tick(now, sample())
	if v, n, ok := windowQuantileOf(e, "resd_slack_ticks", 0.99); !ok || n != 100 || v < 1<<20 {
		t.Fatalf("early era: v=%d n=%d ok=%v, want p99 >= 2^20 over 100 samples", v, n, ok)
	}
	for i := 0; i < 40; i++ {
		now = now.Add(time.Second)
		e.Tick(now, sample())
	}
	for i := 0; i < 100; i++ {
		hist.Observe(3)
	}
	now = now.Add(time.Second)
	e.Tick(now, sample())
	v, n, ok := windowQuantileOf(e, "resd_slack_ticks", 0.99)
	if !ok || n != 100 || v >= 1<<20 {
		t.Fatalf("late era: v=%d n=%d ok=%v, want the early era aged out", v, n, ok)
	}
	var sawWindowFamily bool
	for _, s := range reg.Gather() {
		if s.Name == "resd_slack_ticks_window" || s.Name == "resd_slack_ticks_window_count" {
			sawWindowFamily = true
		}
	}
	if !sawWindowFamily {
		t.Fatal("resd_slack_ticks_window family not exposed")
	}
}

func TestEngineStartStopLifecycle(t *testing.T) {
	j := flight.NewJournal(16, nil)
	e, err := New(Config{Spec: drillSpec(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	// Before Attach a Tick does nothing, whatever it is handed.
	f := &fakeCounters{}
	e.Tick(time.Unix(1000, 0), f.sample())
	if n := e.objs[0].ring.Len(); n != 0 {
		t.Fatalf("Tick before Attach pushed %d snapshots", n)
	}
	now := time.Now()
	if err := e.Attach(now, f.sample()); err != nil {
		t.Fatal(err)
	}
	if n := e.objs[0].ring.Len(); n != 1 {
		t.Fatalf("Attach left %d snapshots, want the baseline", n)
	}
	if tail := j.Tail(0); len(tail) != 1 || tail[0].Msg != "slo engine armed" {
		t.Fatalf("journal after Attach: %+v, want one \"slo engine armed\"", tail)
	}
	// An engine serves one service for life.
	if err := e.Attach(now, f.sample()); !errors.Is(err, ErrConfig) {
		t.Fatalf("second Attach: %v, want ErrConfig", err)
	}
	f.add(0, 1000)
	for i := 0; i < 7 && sev(t, e, "deadline") != SevPage; i++ {
		now = now.Add(e.Period())
		e.Tick(now, f.sample())
	}
	if got := sev(t, e, "deadline"); got != SevPage {
		t.Fatalf("attached engine ticked past the page windows: severity %v, want page", got)
	}
}

func TestSlackGoodBucketSemantics(t *testing.T) {
	// The slack objective counts a sample good when its whole bucket is
	// ≤ bound; goodUnderBound is how the slack signal turns a bound
	// into a cumulative good count.
	var h obs.Histogram
	h.Observe(3)    // bucket upper 3
	h.Observe(100)  // bucket upper 127
	h.Observe(5000) // bucket upper 8191
	var snap [stats.ExpBuckets]uint64
	total := h.Snapshot(&snap)
	if total != 3 {
		t.Fatalf("total %d, want 3", total)
	}
	if g := goodUnderBound(&snap, 127); g != 2 {
		t.Fatalf("goodUnderBound(127) = %d, want 2", g)
	}
	if g := goodUnderBound(&snap, 126); g != 1 {
		t.Fatalf("goodUnderBound(126) = %d, want 1 (bucket 127 not wholly under)", g)
	}
	if g := goodUnderBound(&snap, 1<<62); g != 3 {
		t.Fatalf("goodUnderBound(huge) = %d, want 3", g)
	}
}

// windowQuantileOf answers quantile q of the tracked histogram name over
// the budget window, as its <name>_window summary does.
func windowQuantileOf(e *Engine, name string, q float64) (v int64, n uint64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, h := range e.hists {
		if h.name == name {
			return e.windowQuantile(h, q)
		}
	}
	return 0, 0, false
}
