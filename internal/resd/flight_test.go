package resd

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/obs"
)

// passClock runs a closed sampler's pass at explicit instants. Each one
// is d past both the previous instant and the wall clock, so with d at
// least the judge's period every judge is due, and a heartbeat stamped
// before the call is at least d old.
type passClock struct {
	sp *sampler
	at time.Time
}

func (c *passClock) pass(d time.Duration) {
	if now := time.Now(); now.After(c.at) {
		c.at = now
	}
	c.at = c.at.Add(d)
	c.sp.pass(c.at)
}

// stopSampler closes s's sampler and hands back its pass, to be run at
// explicit instants.
func stopSampler(s *Service) *passClock {
	s.sampler.close()
	return &passClock{sp: s.sampler}
}

// wedgeable is a turn hook that, while wedged, announces each turn it
// holds on entered and holds it until block lets it go.
type wedgeable struct {
	wedge   atomic.Bool
	entered chan struct{}
	block   chan struct{}
}

func newWedgeable() *wedgeable {
	return &wedgeable{entered: make(chan struct{}, 1), block: make(chan struct{})}
}

func (w *wedgeable) hook(int) {
	if w.wedge.Load() {
		w.entered <- struct{}{}
		<-w.block
	}
}

// admitWedged starts an admission the hook wedges, waits until its turn
// is held, and returns where its result will arrive.
func (w *wedgeable) admitWedged(t *testing.T, s *Service) chan error {
	t.Helper()
	w.wedge.Store(true)
	admitErr := make(chan error, 1)
	go func() {
		_, err := s.Admit(Request{Q: 1, Dur: 1, Deadline: NoDeadline})
		admitErr <- err
	}()
	select {
	case <-w.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the wedged admission never entered its turn")
	}
	return admitErr
}

// TestWatchdogWedgedLoop wedges a real shard turn (via the test turn
// hook) and checks the whole detection surface: the watchdog judges the
// node stalled, /healthz serves the warning, the resd_health_state gauge
// reads 2, a diagnostic bundle lands in the flight directory — and
// unwedging recovers everything. The sampler is stopped and its pass run
// at explicit instants.
func TestWatchdogWedgedLoop(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	rec, err := flight.New(flight.Config{Registry: reg, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hold := newWedgeable()
	s := mustNew(t, Config{
		M:        8,
		Obs:      &ObsConfig{Registry: reg, Flight: rec},
		turnHook: hold.hook,
	})
	clock := stopSampler(s)

	// Healthy first: the shard is turning.
	if _, err := s.Admit(Request{Q: 1, Dur: 1, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	clock.pass(flight.CheckEvery)
	if rec.State() != flight.Healthy {
		t.Fatalf("health = %v, want healthy (warning %q)", rec.State(), rec.Warning())
	}

	// Wedge the shard inside one turn, past the stall budget.
	admitErr := hold.admitWedged(t, s)
	clock.pass(flight.StallAfter + flight.CheckEvery)
	if rec.State() != flight.Stalled {
		t.Fatalf("health = %v, want stalled (warning %q)", rec.State(), rec.Warning())
	}
	if w := rec.Warning(); !strings.Contains(w, "shard 0") {
		t.Errorf("warning %q does not name the wedged shard", w)
	}

	// The operator-facing surfaces agree: /healthz warns, the gauge is 2.
	warn := func() string {
		if rec.State() != flight.Healthy {
			return rec.State().String() + ": " + rec.Warning()
		}
		return ""
	}
	hsrv := httptest.NewServer(obs.Handler(reg, nil, warn))
	defer hsrv.Close()
	resp, err := http.Get(hsrv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "warning: stalled") {
		t.Errorf("/healthz = %d %q, want 200 with a stalled warning", resp.StatusCode, body)
	}
	resp, err = http.Get(hsrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	exp, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Value("resd_health_state", nil); !ok || v != 2 {
		t.Errorf("resd_health_state = %v, %v, want 2", v, ok)
	}

	// The stall captured a bundle.
	if got := rec.Bundles(); len(got) != 1 {
		t.Errorf("stall captured %d bundles, want 1", len(got))
	}

	// Unwedge: the held admission completes and health recovers.
	hold.wedge.Store(false)
	close(hold.block)
	select {
	case err := <-admitErr:
		if err != nil {
			t.Fatalf("admission after unwedge: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("admission never completed after unwedge")
	}
	clock.pass(flight.CheckEvery)
	if rec.State() != flight.Healthy {
		t.Fatalf("health = %v after unwedge, want healthy (warning %q)", rec.State(), rec.Warning())
	}

	// The journal holds the whole story.
	var sawStall, sawRecover bool
	for _, ev := range rec.Journal().Tail(0) {
		if ev.Subsys != "flight" {
			continue
		}
		for _, kv := range ev.KV {
			if kv.K == "to" && kv.V == "stalled" {
				sawStall = true
			}
			if kv.K == "to" && kv.V == "healthy" && sawStall {
				sawRecover = true
			}
		}
	}
	if !sawStall || !sawRecover {
		t.Errorf("journal: stall=%v recover=%v, want both", sawStall, sawRecover)
	}
}

// TestWatchdogFlapBounded: a shard that wedges and recovers repeatedly
// cannot write unbounded bundles — the rate limit holds captures to one
// per BundleMinInterval however often the state flaps.
func TestWatchdogFlapBounded(t *testing.T) {
	dir := t.TempDir()
	rec, err := flight.New(flight.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hold := newWedgeable()
	s := mustNew(t, Config{
		M:        8,
		Obs:      &ObsConfig{Flight: rec},
		turnHook: hold.hook,
	})
	clock := stopSampler(s)
	for i := 0; i < 3; i++ {
		admitErr := hold.admitWedged(t, s)
		clock.pass(flight.StallAfter + flight.CheckEvery)
		if rec.State() != flight.Stalled {
			t.Fatalf("flap %d: health = %v, want stalled", i, rec.State())
		}
		hold.wedge.Store(false)
		hold.block <- struct{}{}
		if err := <-admitErr; err != nil {
			t.Fatal(err)
		}
		clock.pass(flight.CheckEvery)
		if rec.State() != flight.Healthy {
			t.Fatalf("flap %d: health = %v after unwedge, want healthy (warning %q)", i, rec.State(), rec.Warning())
		}
	}
	if got := rec.Bundles(); len(got) != 1 {
		t.Errorf("3 flaps wrote %d bundles, want 1 (rate limit)", len(got))
	}
}

// TestSlowLogBlockingCallback: a SlowLog callback that never returns
// cannot stall admissions or shutdown — the queue drops (and counts)
// excess records and Close returns without waiting for the callback.
func TestSlowLogBlockingCallback(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	var fired atomic.Uint64
	s, err := New(Config{M: 8, Obs: &ObsConfig{
		TraceSample:   1,
		SlowThreshold: time.Nanosecond, // every admission is "slow"
		SlowLog: func(TraceRecord) {
			fired.Add(1)
			<-block // a hostile callback: wedges the dispatcher forever
		},
	}})
	if err != nil {
		t.Fatal(err)
	}

	// Far more slow records than the queue holds: admissions must all
	// complete promptly even though the consumer is wedged on record 1.
	const n = slowLogQueueDepth * 2
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if _, err := s.Admit(Request{Q: 1, Dur: 1, Deadline: NoDeadline}); err != nil {
				t.Errorf("Reserve %d: %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("admissions stalled behind a blocking SlowLog callback")
	}
	if got := s.tracer.slowQ.Dropped(); got == 0 {
		t.Error("no dropped slow-log records despite a wedged consumer")
	}
	// A lone caller never leaves its goroutine, so on one processor the
	// dispatcher may not have run yet: wait for the first callback.
	for deadline := time.Now().Add(10 * time.Second); fired.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := fired.Load(); got != 1 {
		t.Errorf("callback fired %d times while wedged, want 1", got)
	}

	// Close must not wait for the wedged callback.
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked on a wedged SlowLog callback")
	}
}

// TestFlightProbesAreMonotonic: the heartbeat the watchdog probes carries
// monotonic readings — BusySince inside a turn, LastTurn after it — so a
// wall-clock step cannot age a turn and report a healthy shard stalled.
func TestFlightProbesAreMonotonic(t *testing.T) {
	rec, err := flight.New(flight.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var s *Service
	var inTurn []flight.ShardProbe
	s = mustNew(t, Config{
		M:   8,
		Obs: &ObsConfig{Flight: rec},
		turnHook: func(int) {
			if s != nil {
				inTurn = s.flightProbes()
			}
		},
	})
	monotonic := func(what string, at time.Time) {
		t.Helper()
		if at.IsZero() || !strings.Contains(at.String(), " m=") {
			t.Fatalf("%s %v carries no monotonic reading", what, at)
		}
	}
	monotonic("LastTurn at creation", s.flightProbes()[0].LastTurn)
	if _, err := s.Admit(Request{Q: 1, Dur: 1, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	if inTurn == nil {
		t.Fatal("the turn hook never probed")
	}
	monotonic("BusySince inside a turn", inTurn[0].BusySince)
	after := s.flightProbes()[0]
	if !after.BusySince.IsZero() {
		t.Fatalf("BusySince %v after the turn, want zero", after.BusySince)
	}
	monotonic("LastTurn after a turn", after.LastTurn)
	if now := time.Now(); after.LastTurn.Before(inTurn[0].BusySince) || after.LastTurn.After(now) {
		t.Fatalf("LastTurn %v outside [BusySince %v, now %v]", after.LastTurn, inTurn[0].BusySince, now)
	}
}
