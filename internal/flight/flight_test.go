package flight

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
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
	q.Close()
	select {
	case <-q.Drained():
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

// judgeAt attaches one shard's probe and returns the crank that sets
// it and judges at an explicit instant.
func judgeAt(r *Recorder) func(at time.Time, p ShardProbe) {
	var probe ShardProbe
	r.Attach(Sources{Shards: func() []ShardProbe { return []ShardProbe{probe} }})
	return func(at time.Time, p ShardProbe) {
		probe = p
		r.Judge(at)
	}
}

// TestWatchdogTransitions drives healthy → stalled → healthy through a
// synthetic probe and checks the journal records both transitions and a
// bundle lands in the directory on the way down.
func TestWatchdogTransitions(t *testing.T) {
	dir := t.TempDir()
	r, err := New(Config{Dir: dir, Budgets: Budgets{
		StallAfter:   10 * time.Millisecond,
		QueueFullFor: -1, FsyncP99: -1, FrameErrorBurst: -1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	judge := judgeAt(r)
	defer r.Detach()
	t0 := time.Now()

	for i := 0; i < 5; i++ {
		at := t0.Add(time.Duration(i) * 5 * time.Millisecond)
		judge(at, ShardProbe{Shard: 0, LastTurn: at})
		if r.State() != Healthy {
			t.Fatalf("healthy probe judged %v: %s", r.State(), r.Warning())
		}
	}
	// Inside one turn for 10ms is within the budget; 11ms is past it.
	busy := t0.Add(time.Second)
	judge(busy.Add(10*time.Millisecond), ShardProbe{Shard: 0, BusySince: busy})
	if r.State() != Healthy {
		t.Fatalf("a turn at its stall budget judged %v", r.State())
	}
	judge(busy.Add(11*time.Millisecond), ShardProbe{Shard: 0, BusySince: busy})
	if r.State() != Stalled {
		t.Fatalf("state = %v, want stalled (warning %q)", r.State(), r.Warning())
	}
	if w := r.Warning(); !strings.Contains(w, "shard 0") {
		t.Errorf("warning %q does not name the shard", w)
	}
	// Capture, then publish: the visible state already has its evidence,
	// and the manifest carries the judgment that triggered it.
	got := r.Bundles()
	if len(got) != 1 {
		t.Fatalf("stall captured %d bundles, want 1", len(got))
	}
	raw, err := os.ReadFile(filepath.Join(dir, got[0], bundleManifest))
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if man.State != Stalled || !strings.Contains(man.Warning, "shard 0") {
		t.Errorf("manifest records state %v warning %q, want the stall naming shard 0", man.State, man.Warning)
	}

	// A queued request with no turn since LastTurn stalls the node too.
	idle := t0.Add(2 * time.Second)
	judge(idle.Add(11*time.Millisecond), ShardProbe{Shard: 0, LastTurn: idle, QueueLen: 1})
	if r.State() != Stalled || !strings.Contains(r.Warning(), "1 queued requests") {
		t.Fatalf("queued without a turn: state %v warning %q, want stalled", r.State(), r.Warning())
	}

	end := t0.Add(3 * time.Second)
	judge(end, ShardProbe{Shard: 0, LastTurn: end})
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
	r, err := New(Config{Budgets: Budgets{
		QueueFullFor: 10 * time.Millisecond,
		StallAfter:   -1, FsyncP99: -1, FrameErrorBurst: -1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	judge := judgeAt(r)
	defer r.Detach()
	t0 := time.Now()
	full := ShardProbe{Shard: 0, LastTurn: t0, QueueLen: 8, QueueCap: 8}
	for ms := 0; ms < 10; ms += 2 {
		judge(t0.Add(time.Duration(ms)*time.Millisecond), full)
		if r.State() != Healthy {
			t.Fatalf("queue full for %dms judged %v, want healthy under a 10ms budget", ms, r.State())
		}
	}
	judge(t0.Add(10*time.Millisecond), full)
	if r.State() != Degraded {
		t.Fatalf("queue full for 10ms judged %v, want degraded", r.State())
	}
	judge(t0.Add(12*time.Millisecond), ShardProbe{Shard: 0, LastTurn: t0, QueueLen: 0, QueueCap: 8})
	if r.State() != Healthy {
		t.Fatalf("drained queue judged %v, want healthy", r.State())
	}
	// Draining reset the clock: full again, the budget starts over.
	judge(t0.Add(14*time.Millisecond), full)
	judge(t0.Add(20*time.Millisecond), full)
	if r.State() != Healthy {
		t.Fatalf("queue full again for 6ms judged %v, want healthy", r.State())
	}
}

// TestWatchdogQueueFullMeasuresTime: the queue-full rule counts the time
// measured between Judge calls, not one CheckEvery per call — two calls a
// second apart are a second of full queue.
func TestWatchdogQueueFullMeasuresTime(t *testing.T) {
	r, err := New(Config{Budgets: Budgets{
		QueueFullFor: time.Second,
		StallAfter:   -1, FsyncP99: -1, FrameErrorBurst: -1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	judge := judgeAt(r)
	defer r.Detach()
	t0 := time.Now()
	full := ShardProbe{Shard: 0, LastTurn: t0, QueueLen: 8, QueueCap: 8}
	judge(t0, full)
	judge(t0.Add(time.Second), full)
	if r.State() != Degraded || !strings.Contains(r.Warning(), "for 1s") {
		t.Fatalf("state %v warning %q, want degraded after 1s of full queue", r.State(), r.Warning())
	}
}

// TestNegativeCheckEveryRefused: CheckEvery is a period, not a rule, so
// a negative one is a configuration error rather than a disabled rule.
func TestNegativeCheckEveryRefused(t *testing.T) {
	if _, err := New(Config{Budgets: Budgets{CheckEvery: -time.Second}}); err == nil {
		t.Fatal("New accepted a negative CheckEvery")
	}
	r, err := New(Config{Budgets: Budgets{}})
	if err != nil {
		t.Fatal(err)
	}
	if every := r.Attach(Sources{}); every != DefaultCheckEvery {
		t.Fatalf("Attach returned period %v, want the default %v", every, DefaultCheckEvery)
	}
}

// TestAutoCaptureRateLimit: a flapping watchdog trigger writes one
// bundle per BundleMinInterval, not one per flap — the disk is safe.
func TestAutoCaptureRateLimit(t *testing.T) {
	dir := t.TempDir()
	r, err := New(Config{Dir: dir, BundleMinInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r.autoCapture("flap", Degraded, "flapping")
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

// TestBundleRetention: Dir keeps the newest BundleKeep bundles.
func TestBundleRetention(t *testing.T) {
	dir := t.TempDir()
	r, err := New(Config{Dir: dir, BundleKeep: 3})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := 0; i < 5; i++ {
		n, err := r.Capture("fill")
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, n)
	}
	got := r.Bundles()
	if len(got) != 3 {
		t.Fatalf("retained %d bundles, want 3", len(got))
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

// TestBundleContents: a capture holds a manifest naming its files, the
// journal dump, and a parseable metrics snapshot.
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
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Name != name || m.Reason != "test" {
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
	var events []Event
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].Msg != "torn tail" {
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
		Events []Event `json:"events"`
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
