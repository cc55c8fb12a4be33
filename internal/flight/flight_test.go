package flight

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestJournalRing: the ring keeps the newest `size` events, totals keep
// counting past the wrap, and Tail returns oldest-first.
func TestJournalRing(t *testing.T) {
	j := NewJournal(4, nil)
	for i := 0; i < 10; i++ {
		sev := Info
		if i%3 == 0 {
			sev = Warn
		}
		j.Record(sev, "resd", i, "event")
	}
	tail := j.Tail(0)
	if len(tail) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(tail))
	}
	for i := 1; i < len(tail); i++ {
		if tail[i].Seq != tail[i-1].Seq+1 {
			t.Fatalf("tail not chronological: %+v", tail)
		}
	}
	if tail[len(tail)-1].Seq != 10 {
		t.Errorf("newest seq = %d, want 10", tail[len(tail)-1].Seq)
	}
	if got := j.Count(Info) + j.Count(Warn); got != 10 {
		t.Errorf("totals survive the wrap: %d, want 10", got)
	}
	if got := j.SubsysCount("resd", Warn); got != 4 {
		t.Errorf("SubsysCount(resd, warn) = %d, want 4", got)
	}
	if got := j.Tail(2); len(got) != 2 || got[1].Seq != 10 {
		t.Errorf("Tail(2) = %+v, want the 2 newest", got)
	}
}

// TestJournalNil: every method is a safe no-op on a nil journal — the
// contract that lets hook sites record unconditionally.
func TestJournalNil(t *testing.T) {
	var j *Journal
	j.Record(Error, "wal", 0, "ignored")
	j.RecordEvent(Event{Sev: Warn})
	if j.Count(Error) != 0 || j.SubsysCount("wal", Error) != 0 || j.Tail(0) != nil {
		t.Error("nil journal not inert")
	}
}

// TestJournalMetrics: per-severity totals mirror into the registry.
func TestJournalMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	j := NewJournal(8, reg)
	j.Record(Info, "resd", 0, "a")
	j.Record(Error, "wal", 1, "b")
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Value("flight_events_total", map[string]string{"severity": "error"}); !ok || v != 1 {
		t.Errorf("flight_events_total{severity=error} = %v, %v", v, ok)
	}
}

// TestSeverityJSON: events marshal with string severities so bundle
// dumps read without a decoder table.
func TestSeverityJSON(t *testing.T) {
	j := NewJournal(2, nil)
	j.Record(Warn, "wal", -1, "torn tail")
	raw, err := json.Marshal(j.Tail(0))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"sev":"warn"`) {
		t.Errorf("severity not a string: %s", raw)
	}
}

// TestQueueDispatch: accepted callbacks run in order on the consumer;
// a full queue drops (counted) without blocking the caller.
func TestQueueDispatch(t *testing.T) {
	q := NewQueue(2)
	block := make(chan struct{})
	var mu sync.Mutex
	var ran []int
	// Wedge the consumer so subsequent dispatches fill the buffer.
	q.Dispatch(func() { <-block })
	for i := 0; i < 4; i++ {
		i := i
		q.Dispatch(func() { mu.Lock(); ran = append(ran, i); mu.Unlock() })
	}
	if d := q.Dropped(); d == 0 {
		t.Error("overfull queue dropped nothing")
	}
	close(block)
	// A last callback runs after every accepted one; offer it until the
	// draining consumer makes room.
	drained := make(chan struct{})
	deadline := time.Now().Add(5 * time.Second)
	for !q.Dispatch(func() { close(drained) }) {
		if time.Now().After(deadline) {
			t.Fatal("consumer never made room")
		}
		runtime.Gosched()
	}
	q.Close()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never drained")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) == 0 || len(ran) > 2 {
		t.Errorf("ran %v callbacks, want 1..2 (depth 2)", ran)
	}
	for i := 1; i < len(ran); i++ {
		if ran[i] < ran[i-1] {
			t.Errorf("callbacks out of order: %v", ran)
		}
	}
}

// TestQueueCloseNonBlocking: Close returns even while the consumer is
// wedged inside a callback — a hostile SlowLog must not wedge shutdown.
func TestQueueCloseNonBlocking(t *testing.T) {
	q := NewQueue(1)
	block := make(chan struct{})
	defer close(block)
	q.Dispatch(func() { <-block })
	done := make(chan struct{})
	go func() { q.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a wedged consumer")
	}
	if q.Dispatch(func() {}) {
		t.Error("Dispatch accepted after Close")
	}
	var nq *Queue
	nq.Dispatch(func() {}) // nil-safe
	nq.Close()
}

// judgeOne judges r at an explicit instant over one shard's probe.
func judgeOne(r *Recorder, at time.Time, p ShardProbe) { r.Judge(at, []ShardProbe{p}) }

// TestWatchdogTransitions drives healthy → stalled → healthy through a
// synthetic probe and checks the journal records both transitions and a
// bundle lands in the directory on the way down.
func TestWatchdogTransitions(t *testing.T) {
	dir := t.TempDir()
	r, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()

	for i := 0; i < 5; i++ {
		at := t0.Add(time.Duration(i) * CheckEvery)
		judgeOne(r, at, ShardProbe{Shard: 0, LastTurn: at})
		if r.State() != Healthy {
			t.Fatalf("healthy probe judged %v: %s", r.State(), r.Warning())
		}
	}
	// Inside one turn for StallAfter is within the budget; a millisecond
	// more is past it.
	busy := t0.Add(10 * time.Second)
	judgeOne(r, busy.Add(StallAfter), ShardProbe{Shard: 0, BusySince: busy})
	if r.State() != Healthy {
		t.Fatalf("a turn at its stall budget judged %v", r.State())
	}
	judgeOne(r, busy.Add(StallAfter+time.Millisecond), ShardProbe{Shard: 0, BusySince: busy})
	if r.State() != Stalled {
		t.Fatalf("state = %v, want stalled (warning %q)", r.State(), r.Warning())
	}
	if w := r.Warning(); !strings.Contains(w, "shard 0") {
		t.Errorf("warning %q does not name the shard", w)
	}
	// Capture, then publish: the visible state already has its evidence,
	// and the manifest carries the judgment that triggered it. The
	// manifest is read as obscheck reads it, its state a string.
	got := r.Bundles()
	if len(got) != 1 {
		t.Fatalf("stall captured %d bundles, want 1", len(got))
	}
	raw, err := os.ReadFile(filepath.Join(dir, got[0], bundleManifest))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		State   string `json:"state"`
		Warning string `json:"warning"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if man.State != "stalled" || !strings.Contains(man.Warning, "shard 0") {
		t.Errorf("manifest records state %q warning %q, want the stall naming shard 0", man.State, man.Warning)
	}

	// A queued request with no turn since LastTurn stalls the node too.
	idle := t0.Add(20 * time.Second)
	judgeOne(r, idle.Add(StallAfter+time.Millisecond), ShardProbe{Shard: 0, LastTurn: idle, QueueLen: 1})
	if r.State() != Stalled || !strings.Contains(r.Warning(), "1 queued requests") {
		t.Fatalf("queued without a turn: state %v warning %q, want stalled", r.State(), r.Warning())
	}

	end := t0.Add(30 * time.Second)
	judgeOne(r, end, ShardProbe{Shard: 0, LastTurn: end})
	if r.State() != Healthy {
		t.Fatalf("state = %v after recovery, want healthy", r.State())
	}
	if r.Warning() != "" {
		t.Errorf("recovered but warning = %q", r.Warning())
	}

	var sawStall, sawRecover bool
	for _, ev := range r.Journal().Tail(0) {
		if ev.Subsys != "flight" {
			continue
		}
		for _, kv := range ev.KV {
			if kv.K == "to" && kv.V == "stalled" {
				sawStall = true
			}
			if kv.K == "to" && kv.V == "healthy" {
				sawRecover = true
			}
		}
	}
	if !sawStall || !sawRecover {
		t.Errorf("journal transitions: stall=%v recover=%v, want both", sawStall, sawRecover)
	}
}

// TestWatchdogQueueRunaway: a queue pinned at capacity degrades the
// node after QueueFullFor, and draining it recovers.
func TestWatchdogQueueRunaway(t *testing.T) {
	r, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	// The shard keeps turning: only the queue rule can fire.
	full := func(at time.Duration) {
		now := t0.Add(at)
		judgeOne(r, now, ShardProbe{Shard: 0, LastTurn: now, QueueLen: 8, QueueCap: 8})
	}
	step := QueueFullFor / 5
	for at := time.Duration(0); at < QueueFullFor; at += step {
		full(at)
		if r.State() != Healthy {
			t.Fatalf("queue full for %v judged %v, want healthy under a %v budget", at, r.State(), QueueFullFor)
		}
	}
	full(QueueFullFor)
	if r.State() != Degraded {
		t.Fatalf("queue full for %v judged %v, want degraded", QueueFullFor, r.State())
	}
	drained := t0.Add(QueueFullFor + step)
	judgeOne(r, drained, ShardProbe{Shard: 0, LastTurn: drained, QueueLen: 0, QueueCap: 8})
	if r.State() != Healthy {
		t.Fatalf("drained queue judged %v, want healthy", r.State())
	}
	// Draining reset the clock: full again, the budget starts over.
	full(QueueFullFor + 2*step)
	full(2 * QueueFullFor)
	if r.State() != Healthy {
		t.Fatalf("queue full again, under its budget, judged %v, want healthy", r.State())
	}
}

// TestWatchdogQueueFullMeasuresTime: the queue-full rule counts the time
// measured between Judge calls, not one CheckEvery per call — two calls a
// second apart are a second of full queue.
func TestWatchdogQueueFullMeasuresTime(t *testing.T) {
	r, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	full := ShardProbe{Shard: 0, LastTurn: t0, QueueLen: 8, QueueCap: 8}
	judgeOne(r, t0, full)
	judgeOne(r, t0.Add(time.Second), full)
	if r.State() != Degraded || !strings.Contains(r.Warning(), "for 1s") {
		t.Fatalf("state %v warning %q, want degraded after 1s of full queue", r.State(), r.Warning())
	}
}

// TestWatchdogFrameErrorBurstIsARate: the frame-error rule judges the
// events between two Judge calls as a rate over the interval measured,
// so a late pass does not count more events against the same bound.
func TestWatchdogFrameErrorBurstIsARate(t *testing.T) {
	r, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	frameErrors := func(n int) {
		for i := 0; i < n; i++ {
			r.Journal().Record(Warn, "reswire", -1, "frame error")
		}
	}
	t0 := time.Now()
	r.Judge(t0, nil)
	// Twice the burst between two calls four periods apart is half the
	// bound's rate.
	frameErrors(2 * FrameErrorBurst)
	r.Judge(t0.Add(4*CheckEvery), nil)
	if r.State() != Healthy {
		t.Fatalf("%d frame errors over %v judged %v (%q), want healthy", 2*FrameErrorBurst, 4*CheckEvery, r.State(), r.Warning())
	}
	// One more than the burst inside one period is over it.
	frameErrors(FrameErrorBurst + 1)
	r.Judge(t0.Add(5*CheckEvery), nil)
	if r.State() != Degraded {
		t.Fatalf("%d frame errors in one period judged %v, want degraded", FrameErrorBurst+1, r.State())
	}
	if w := r.Warning(); !strings.Contains(w, "in "+CheckEvery.String()) {
		t.Errorf("warning %q does not name the %v it measured", w, CheckEvery)
	}
	// A quiet period recovers.
	r.Judge(t0.Add(6*CheckEvery), nil)
	if r.State() != Healthy {
		t.Fatalf("a quiet period judged %v, want healthy", r.State())
	}
}

// TestAutoCaptureRateLimit: a flapping watchdog trigger writes one
// bundle per BundleMinInterval, not one per flap — the disk is safe.
func TestAutoCaptureRateLimit(t *testing.T) {
	dir := t.TempDir()
	r, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r.autoCapture(time.Now(), "flap", Degraded, "flapping")
	}
	// Every automatic trigger shares the one limit.
	if name := r.AutoCapture("slo page"); name != "" {
		t.Fatalf("AutoCapture wrote %s inside the watchdog's interval", name)
	}
	if got := r.Bundles(); len(got) != 1 {
		t.Fatalf("20 flaps wrote %d bundles, want 1", len(got))
	}
	if r.rateLimited.Load() != 20 {
		t.Errorf("rateLimited = %d, want 20", r.rateLimited.Load())
	}
	// On-demand capture is never rate-limited.
	if _, err := r.Capture("operator"); err != nil {
		t.Fatalf("on-demand capture rate-limited: %v", err)
	}
	if got := r.Bundles(); len(got) != 2 {
		t.Errorf("bundles = %d, want 2", len(got))
	}
}

// TestAutoCaptureRateLimitOnJudgeClock: the watchdog's rate limit is
// measured on the instants Judge is handed, not on the wall clock. Two
// stalls judged 61 s apart, with a recovery between them, write two
// bundles; 30 s apart, one. The test takes milliseconds of real time.
func TestAutoCaptureRateLimitOnJudgeClock(t *testing.T) {
	for _, c := range []struct {
		gap  time.Duration
		want int
	}{{61 * time.Second, 2}, {30 * time.Second, 1}} {
		r, err := New(Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
		for _, at := range []time.Time{t0, t0.Add(c.gap)} {
			judgeOne(r, at, ShardProbe{Shard: 0, BusySince: at.Add(-2 * StallAfter)})
			if r.State() != Stalled {
				t.Fatalf("gap %v: a stall judged %v", c.gap, r.State())
			}
			back := at.Add(CheckEvery)
			judgeOne(r, back, ShardProbe{Shard: 0, LastTurn: back})
			if r.State() != Healthy {
				t.Fatalf("gap %v: a recovery judged %v", c.gap, r.State())
			}
		}
		if got := len(r.Bundles()); got != c.want {
			t.Errorf("two stalls %v apart wrote %d bundles, want %d", c.gap, got, c.want)
		}
	}
}

// TestBundleRetention: Dir keeps the newest BundleKeep bundles.
func TestBundleRetention(t *testing.T) {
	dir := t.TempDir()
	r, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := 0; i < BundleKeep+2; i++ {
		n, err := r.Capture("fill")
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, n)
	}
	got := r.Bundles()
	if len(got) != BundleKeep {
		t.Fatalf("retained %d bundles, want %d", len(got), BundleKeep)
	}
	for i, n := range got {
		if want := names[i+2]; n != want {
			t.Errorf("retained[%d] = %s, want %s (newest kept)", i, n, want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, names[0])); !os.IsNotExist(err) {
		t.Errorf("oldest bundle still on disk: %v", err)
	}
}

// event mirrors a journal event the way cmd/obscheck decodes it: the
// severity is its label string.
type event struct {
	Sev string `json:"sev"`
	Msg string `json:"msg"`
}

// TestBundleContents: a capture holds a manifest naming its files, the
// journal dump, and a parseable metrics snapshot. The manifest and the
// journal are read as obscheck reads them, with string-typed states.
func TestBundleContents(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	r, err := New(Config{Dir: dir, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	r.SetConfigInfo(map[string]int{"shards": 4})
	r.Journal().Record(Warn, "wal", 2, "torn tail")
	name, err := r.Capture("test")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, name, bundleManifest))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Name   string   `json:"name"`
		Reason string   `json:"reason"`
		State  string   `json:"state"`
		Files  []string `json:"files"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Name != name || m.Reason != "test" || m.State != "healthy" {
		t.Errorf("manifest = %+v", m)
	}
	for _, want := range []string{bundleJournal, bundleGoroutines, bundleMetrics, bundleConfig, bundleManifest} {
		found := false
		for _, f := range m.Files {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Errorf("manifest lacks %s: %v", want, m.Files)
		}
	}
	raw, err = os.ReadFile(filepath.Join(dir, name, bundleJournal))
	if err != nil {
		t.Fatal(err)
	}
	var events []event
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].Msg != "torn tail" || events[0].Sev != "warn" {
		t.Errorf("journal dump = %+v", events)
	}
	raw, err = os.ReadFile(filepath.Join(dir, name, bundleMetrics))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ParseExposition(raw); err != nil {
		t.Errorf("metrics snapshot malformed: %v", err)
	}
}

// TestHandler: the HTTP surface serves status, captures on POST only,
// lists and fetches bundle files, and refuses path traversal.
func TestHandler(t *testing.T) {
	dir := t.TempDir()
	r, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r.Journal().Record(Info, "resd", 0, "hello")
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		State  string  `json:"state"`
		Events []event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.State != "healthy" || len(status.Events) != 1 {
		t.Errorf("status = %+v", status)
	}

	if resp, _ = srv.Client().Get(srv.URL + "/debug/flight/capture"); resp.StatusCode != 405 {
		t.Errorf("GET capture = %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = srv.Client().Post(srv.URL+"/debug/flight/capture?reason=t", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cap struct {
		Bundle string `json:"bundle"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cap); err != nil || cap.Bundle == "" {
		t.Fatalf("capture reply: %v %+v", err, cap)
	}
	resp.Body.Close()

	resp, err = srv.Client().Get(srv.URL + "/debug/flight/bundle/" + cap.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Files []string `json:"files"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil || len(listing.Files) == 0 {
		t.Fatalf("bundle listing: %v %+v", err, listing)
	}
	resp.Body.Close()
	resp, err = srv.Client().Get(srv.URL + "/debug/flight/bundle/" + cap.Bundle + "/" + bundleManifest)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("manifest fetch: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	for _, path := range []string{
		"/debug/flight/bundle/../secret",
		"/debug/flight/bundle/" + cap.Bundle + "/..%2f..%2fmanifest.json",
		"/debug/flight/bundle/.tmp-x",
		"/debug/flight/bundle/notflight",
		"/debug/flight/bundle/" + cap.Bundle + "/.hidden",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}
