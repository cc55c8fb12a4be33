package reswire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/resd"
	"repro/internal/slo"
	"repro/internal/tenant"
)

func TestWatchRequestCodec(t *testing.T) {
	req := Request{ID: 3, Op: OpWatch, Interval: 250 * time.Millisecond}
	frame, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := newFrameReader(bytes.NewReader(frame)).readRequest()
	if err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
	}

	// A negative interval is refused by the encoder and, hand-built, by
	// the decoder; so is a revision-5 body, whose family mask is now a
	// trailing word.
	if _, err := AppendRequest(nil, Request{Op: OpWatch, Interval: -time.Second}); !errors.Is(err, ErrFrame) {
		t.Errorf("negative interval err = %v, want ErrFrame", err)
	}
	for _, frame := range [][]byte{
		frameAt(Version, OpWatch, binary.BigEndian.AppendUint64(nil, 1<<64-1)...), // -1 ns
		frameAt(Version, OpWatch, watchV5...),
	} {
		if _, err := newFrameReader(bytes.NewReader(frame)).readRequest(); !errors.Is(err, ErrFrame) {
			t.Errorf("hostile watch frame err = %v, want ErrFrame", err)
		}
	}
}

func TestWatchTelemetryCodec(t *testing.T) {
	tel := &Telemetry{
		Seq: 7, Dropped: 2, NodeSnapshot: resd.NodeSnapshot{M: 64, Floor: 16,
			Queue: []int{3, 0},
			Shards: []resd.ShardStats{
				{Active: 5, CommittedArea: 1234, Admitted: 10, Cancelled: 2, Rejected: 1,
					RejectedDeadline: 3, RejectedQuota: 4, SlackP99: 99, Batches: 7, Ops: 20},
				{Admitted: 1},
			},
			Tenants: []resd.TenantLoad{
				{Tenant: "acme", Budget: 100, Used: 40, Inflight: 2},
				{Tenant: "", Budget: 50},
			},
			WAL: []resd.WALShardStats{
				{Shard: 0, Gen: 3, Bytes: 4096, Records: 17, Fsyncs: 9, Snapshots: 2, FsyncP99: 120000, Failed: 0},
			},
			TracesSampled: 11, TracesSlow: 1,
			SLO: []slo.State{
				{Name: "deadline", Signal: slo.DeadlineAttainment, Target: 0.99,
					Attainment: 0.97, BudgetRemaining: -2, BurnMax: 14.5, Severity: slo.SevPage},
				{Name: "acme-slack", Tenant: "acme", Signal: slo.Slack, Target: 0.9,
					Attainment: 1, BudgetRemaining: 1, BurnMax: 0, Severity: slo.OK},
			},
		},
	}
	frame, err := AppendResponse(nil, Response{ID: 9, Op: OpWatch, Code: CodeOK, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	got, err := newFrameReader(bytes.NewReader(frame)).readResponse()
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 9 || got.Op != OpWatch || got.Code != CodeOK {
		t.Fatalf("header round trip: %+v", got)
	}
	if !reflect.DeepEqual(got.Telemetry, tel) {
		t.Fatalf("telemetry round trip:\n got %+v\nwant %+v", got.Telemetry, tel)
	}

	// A bare node's absent families are zero counts on the wire and nil
	// after it, as Node returns them.
	bare := &Telemetry{Seq: 1, NodeSnapshot: resd.NodeSnapshot{M: 8, Queue: []int{0}, Shards: []resd.ShardStats{{}}}}
	bframe, err := AppendResponse(nil, Response{ID: 1, Op: OpWatch, Telemetry: bare})
	if err != nil {
		t.Fatal(err)
	}
	bgot, err := newFrameReader(bytes.NewReader(bframe)).readResponse()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bgot.Telemetry, bare) {
		t.Fatalf("bare telemetry round trip:\n got %+v\nwant %+v", bgot.Telemetry, bare)
	}

	// Encoder-side refusals.
	for _, resp := range []Response{
		{Op: OpWatch}, // no telemetry at all
		{Op: OpWatch, Telemetry: &Telemetry{NodeSnapshot: resd.NodeSnapshot{M: -1}}},      // negative capacity
		{Op: OpWatch, Telemetry: &Telemetry{NodeSnapshot: resd.NodeSnapshot{M: 1 << 31}}}, // a machine wider than the field
		{Op: OpSnapshot, M: 1 << 31}, // the same through Snapshot
		// Queue and Shards are one row per shard: a depth short of (or past)
		// the shard count has no encoding that decodes back to it.
		{Op: OpWatch, Telemetry: &Telemetry{NodeSnapshot: resd.NodeSnapshot{Shards: tel.Shards, Queue: tel.Queue[:1]}}},
		{Op: OpWatch, Telemetry: &Telemetry{NodeSnapshot: resd.NodeSnapshot{Shards: tel.Shards[:1], Queue: tel.Queue}}},
	} {
		if _, err := AppendResponse(nil, resp); !errors.Is(err, ErrFrame) {
			t.Errorf("AppendResponse(%+v) err = %v, want ErrFrame", resp, err)
		}
	}

	// A hostile shard count cannot force a large allocation: the count is
	// validated against the remaining payload before make.
	countOff := 4 + headerLen + 1 + 8 + 8 + 4 + 4 // len + header + code + seq + dropped + M + floor
	bomb := bytes.Clone(frame)
	binary.BigEndian.PutUint32(bomb[countOff:], 1<<15)
	if _, err := newFrameReader(bytes.NewReader(bomb)).readResponse(); !errors.Is(err, ErrFrame) {
		t.Errorf("shard-count bomb err = %v, want ErrFrame", err)
	}
	// A hostile negative capacity fails the frame rather than decoding.
	negM := bytes.Clone(frame)
	binary.BigEndian.PutUint32(negM[countOff-8:], 0xFFFFFFFF)
	if _, err := newFrameReader(bytes.NewReader(negM)).readResponse(); !errors.Is(err, ErrFrame) {
		t.Errorf("negative-M frame err = %v, want ErrFrame", err)
	}
}

// TestWatchEndToEnd subscribes a client to a live server and asserts the
// pushed frames carry the admission, tenant, and trace counters that
// in-process polling would have shown — without the client issuing any
// Stats calls.
func TestWatchEndToEnd(t *testing.T) {
	reg := mustRegistry(t, 1<<20, tenant.Spec{})
	addr, svc := startServer(t, resd.Config{
		Shards: 2, M: 8, Quotas: reg,
		Obs: &resd.ObsConfig{TraceSample: 1 << 20}, // force-sample only
	})
	c := dial(t, addr, Options{Conns: 1, Pipeline: true})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := c.Watch(ctx, WatchOptions{Interval: MinWatchInterval})
	if err != nil {
		t.Fatal(err)
	}

	const admissions = 5
	var held []resd.Reservation
	for i := 0; i < admissions-1; i++ {
		r, err := c.Admit(resd.Request{Tenant: "acme", Q: 1, Dur: 10, Deadline: resd.NoDeadline})
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, r)
	}
	// The trace flag forces a sample despite the absurd sampling rate,
	// and the stamped frame gives the record a cross-wire span.
	if _, err := c.Admit(resd.Request{Tenant: "acme", Q: 1, Dur: 10, Deadline: resd.NoDeadline, Trace: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(held[0].ID); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(10 * time.Second)
	var lastSeq uint64
	for {
		var tel Telemetry
		select {
		case tel = <-ch:
		case <-deadline:
			t.Fatal("watch frames never converged on the expected counters")
		}
		if tel.Seq <= lastSeq {
			t.Fatalf("frame seq went %d -> %d, want strictly increasing", lastSeq, tel.Seq)
		}
		lastSeq = tel.Seq
		if tel.M != 8 || len(tel.Shards) != 2 || len(tel.Queue) != 2 {
			t.Fatalf("frame shape: %+v", tel)
		}
		if len(tel.WAL) != 0 {
			t.Fatalf("in-memory server pushed WAL telemetry: %+v", tel.WAL)
		}
		var admitted, cancelled uint64
		for _, st := range tel.Shards {
			admitted += st.Admitted
			cancelled += st.Cancelled
		}
		var acme *resd.TenantLoad
		for i := range tel.Tenants {
			if tel.Tenants[i].Tenant == "acme" {
				acme = &tel.Tenants[i]
			}
		}
		if admitted == admissions && cancelled == 1 &&
			acme != nil && acme.Used == (admissions-1)*10 &&
			tel.TracesSampled >= 1 {
			break // every family converged
		}
	}

	// Sampled records carry the cross-wire span from the client's stamp —
	// the end-to-end half of the trace-propagation tentpole. The 1-in-N
	// sampler always takes the first request, so the forced (Trace: true)
	// admission shows up as a second record the absurd rate could never
	// produce.
	traces := svc.Traces(0)
	if len(traces) != 2 {
		t.Fatalf("recorded %d traces, want 2 (first-request sample + forced sample)", len(traces))
	}
	for _, tr := range traces {
		if tr.ClientSend <= 0 {
			t.Fatalf("wire-admitted trace has no client-send span: %+v", tr)
		}
	}

	cancel()
	select {
	case _, ok := <-ch:
		for ok {
			_, ok = <-ch
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch channel not closed after cancel")
	}
}

// TestWatchLoopDropsWhenWriterFull pins the slow-consumer contract at the
// subscription loop: a full writer queue drops the frame (the send never
// blocks) and the gap is reported in the next delivered frame's Dropped
// count.
func TestWatchLoopDropsWhenWriterFull(t *testing.T) {
	svc, err := resd.New(resd.Config{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s := NewServer(svc)
	j := flight.NewJournal(8, nil)
	s.SetFlight(j)
	out := make(chan Response, 1) // tiny writer queue: every second push drops
	done := make(chan struct{})
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		s.watchLoop(Request{ID: 1, Op: OpWatch, Interval: MinWatchInterval}, out, done)
	}()

	first := <-out
	if first.Telemetry == nil || first.Telemetry.Seq != 1 || first.Telemetry.Dropped != 0 {
		t.Fatalf("first frame = %+v", first.Telemetry)
	}
	// Stall: the buffer holds one frame (seq 2), then pushes drop. The
	// first drop journals a Warn, the one mark a drop leaves outside the
	// loop, so the journal is polled for it.
	for deadline := time.Now().Add(10 * time.Second); len(j.Tail(0)) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no push dropped after 10s of stall")
		}
	}
	second := <-out
	if second.Telemetry.Seq != 2 {
		t.Fatalf("second frame seq = %d, want 2", second.Telemetry.Seq)
	}
	// The next delivered frame accounts for the stall.
	third := <-out
	if third.Telemetry.Seq != 3 || third.Telemetry.Dropped == 0 {
		t.Fatalf("post-stall frame = %+v, want seq 3 with Dropped > 0", third.Telemetry)
	}
	close(done)
	select {
	case <-loopDone:
	case <-time.After(10 * time.Second):
		t.Fatal("watchLoop did not exit on done")
	}
}

// TestWatchStalledSubscriberDoesNotBlockOthers subscribes a watcher that
// never reads its socket, then drives admissions through a separate
// client: the stalled subscription must cost the rest of the server
// nothing — telemetry reads published atomics and drops on backpressure,
// so no shard or sibling connection ever waits on it.
func TestWatchStalledSubscriberDoesNotBlockOthers(t *testing.T) {
	addr, svc := startServer(t, resd.Config{Shards: 2, M: 64})

	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	frame, err := AppendRequest(nil, Request{ID: 1, Op: OpWatch, Interval: MinWatchInterval})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stalled.Write(frame); err != nil {
		t.Fatal(err)
	}
	// Never read from stalled again: its frames pile into the TCP buffers
	// and then drop server-side.

	c := dial(t, addr, Options{Conns: 1, Pipeline: true})
	const n = 1000
	for i := 0; i < n; i++ {
		if _, err := c.Admit(resd.Request{Q: 1, Dur: 1, Deadline: resd.NoDeadline}); err != nil {
			t.Fatalf("reserve %d alongside a stalled watcher: %v", i, err)
		}
	}
	var admitted uint64
	for _, st := range svc.Stats() {
		admitted += st.Admitted
	}
	if admitted != n {
		t.Fatalf("admitted = %d, want %d", admitted, n)
	}
}

// TestWatchConnCap pins the per-connection subscription bound: the 17th
// Watch on one connection is refused with BAD_REQUEST while the first 16
// stream on.
func TestWatchConnCap(t *testing.T) {
	addr, _ := startServer(t, resd.Config{M: 8})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var buf []byte
	for id := uint64(1); id <= maxConnWatches+1; id++ {
		// A one-minute interval keeps the live subscriptions quiet after
		// their immediate first frame.
		buf, err = AppendRequest(buf, Request{ID: id, Op: OpWatch, Interval: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	fr := newFrameReader(nc)
	okFrames := 0
	for {
		resp, err := fr.readResponse()
		if err != nil {
			t.Fatalf("after %d frames: %v", okFrames, err)
		}
		if resp.ID == maxConnWatches+1 {
			if resp.Code != CodeBadRequest {
				t.Fatalf("subscription %d answered %v, want CodeBadRequest", maxConnWatches+1, resp.Code)
			}
			return
		}
		if resp.Code != CodeOK || resp.Telemetry == nil {
			t.Fatalf("subscription %d pushed %+v", resp.ID, resp)
		}
		okFrames++
	}
}

// TestWatchResubscribesAfterReconnect kills the watcher's server and
// brings a new one up on the same address: the stream must redial,
// resubscribe, and keep delivering — with the frame Seq restarting, as
// documented.
func TestWatchResubscribesAfterReconnect(t *testing.T) {
	svc, err := resd.New(resd.Config{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv1 := NewServer(svc)
	go srv1.Serve(ln)

	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := c.Watch(ctx, WatchOptions{Interval: MinWatchInterval})
	if err != nil {
		t.Fatal(err)
	}
	if tel := <-ch; tel.Seq != 1 {
		t.Fatalf("first frame seq = %d, want 1", tel.Seq)
	}

	srv1.Close()
	var ln2 net.Listener
	for i := 0; ; i++ {
		if ln2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if i > 200 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		// The port is free once srv1's listener has let go of it; a failed
		// bind is the only sign it has not, so the bind is retried.
		time.Sleep(20 * time.Millisecond)
	}
	srv2 := NewServer(svc)
	go srv2.Serve(ln2)
	defer srv2.Close()

	// Frames buffered from the first subscription may still drain; the
	// resubscription announces itself by the Seq counter restarting.
	deadline := time.After(30 * time.Second)
	last := uint64(1)
	for {
		select {
		case tel, ok := <-ch:
			if !ok {
				t.Fatal("watch channel closed instead of resubscribing")
			}
			if tel.Seq <= last {
				return // seq restarted: the stream resubscribed
			}
			last = tel.Seq
		case <-deadline:
			t.Fatal("no frames after server restart")
		}
	}
}

func TestWatchClientValidation(t *testing.T) {
	addr, _ := startServer(t, resd.Config{M: 8})
	c := dial(t, addr, Options{})
	if _, err := c.Watch(context.Background(), WatchOptions{Interval: -time.Second}); err == nil {
		t.Error("negative interval accepted")
	}
	// An unreachable server fails Watch synchronously, not as a silent
	// redial-forever stream.
	dead, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	if _, err := dead.Watch(context.Background(), WatchOptions{}); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Watch on closed client err = %v, want ErrClientClosed", err)
	}
	unreachable := &Client{addr: "127.0.0.1:1", done: make(chan struct{})}
	if _, err := unreachable.Watch(context.Background(), WatchOptions{}); err == nil {
		t.Error("Watch against an unreachable address returned a stream")
	}
}

// TestWatchSLOOverLoopback runs a real engine behind a real server: every
// frame must carry the evaluated objective states, and a server without
// an engine must push frames whose SLO family is nil instead of failing.
func TestWatchSLOOverLoopback(t *testing.T) {
	eng, err := slo.New(slo.Config{Spec: slo.Spec{
		Objectives: []slo.ObjectiveSpec{
			{Name: "success", Signal: "error_rate", Target: 0.99},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	addr, svc := startServer(t, resd.Config{M: 8, Obs: &resd.ObsConfig{SLO: eng}})
	if _, err := svc.Admit(resd.Request{Q: 1, Dur: 1, Deadline: resd.NoDeadline}); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := c.Watch(ctx, WatchOptions{Interval: MinWatchInterval})
	if err != nil {
		t.Fatal(err)
	}
	tel := <-ch
	if len(tel.SLO) != 1 {
		t.Fatalf("SLO entries = %d, want 1", len(tel.SLO))
	}
	o := tel.SLO[0]
	if o.Name != "success" || o.Signal != slo.ErrorRate || o.Target != 0.99 || o.Severity != slo.OK {
		t.Fatalf("SLO telemetry: %+v", o)
	}

	// No engine: the family is nil, not an error.
	bareAddr, _ := startServer(t, resd.Config{M: 8})
	bc := dial(t, bareAddr, Options{})
	bch, err := bc.Watch(ctx, WatchOptions{Interval: MinWatchInterval})
	if err != nil {
		t.Fatal(err)
	}
	if tel := <-bch; tel.SLO != nil {
		t.Fatalf("engine-less server pushed SLO entries %+v", tel.SLO)
	}
}

// drain is a leak guard helper: consume a watch channel until closed.
func drainWatch(tb testing.TB, ch <-chan Telemetry) {
	tb.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return
			}
		case <-deadline:
			tb.Fatal("watch channel never closed")
		}
	}
}

// TestWatchEndsOnClientClose pins the teardown path: Close ends the
// stream (channel closes) even mid-subscription.
func TestWatchEndsOnClientClose(t *testing.T) {
	addr, _ := startServer(t, resd.Config{M: 8})
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := c.Watch(context.Background(), WatchOptions{Interval: MinWatchInterval})
	if err != nil {
		t.Fatal(err)
	}
	<-ch // stream live
	c.Close()
	drainWatch(t, ch)
}
