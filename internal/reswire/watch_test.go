package reswire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/resd"
	"repro/internal/slo"
	"repro/internal/tenant"
)

func TestWatchRequestCodec(t *testing.T) {
	req := Request{ID: 3, Op: OpWatch, Interval: 250 * time.Millisecond, Mask: WatchShards | WatchWAL}
	frame, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
	}

	// Encoder-side refusals: negative interval, empty mask, unknown mask
	// bits.
	hostile := []Request{
		{Op: OpWatch, Interval: -time.Second, Mask: WatchAll},
		{Op: OpWatch, Interval: time.Second, Mask: 0},
		{Op: OpWatch, Interval: time.Second, Mask: WatchAll | 1<<10},
	}
	for _, req := range hostile {
		if _, err := AppendRequest(nil, req); !errors.Is(err, ErrFrame) {
			t.Errorf("AppendRequest(%+v) err = %v, want ErrFrame", req, err)
		}
	}

	// Decoder-side refusals for hostile frames the encoder would never
	// emit: the same invalid bodies, hand-built.
	build := func(interval int64, mask uint32) []byte {
		return frameAt(Version, OpWatch, binary.BigEndian.AppendUint32(appendI64(nil, interval), mask)...)
	}
	for _, frame := range [][]byte{
		build(-1, uint32(WatchAll)),        // negative interval
		build(1e6, 0),                      // empty mask
		build(1e6, uint32(WatchAll)|1<<20), // unknown family bit
	} {
		if _, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame))); !errors.Is(err, ErrFrame) {
			t.Errorf("hostile watch frame err = %v, want ErrFrame", err)
		}
	}
}

func TestWatchTelemetryCodec(t *testing.T) {
	tel := &Telemetry{
		Seq: 7, Dropped: 2, Mask: WatchAll, NodeSnapshot: resd.NodeSnapshot{M: 64, Floor: 16,
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
	got, err := ReadResponse(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 9 || got.Op != OpWatch || got.Code != CodeOK {
		t.Fatalf("header round trip: %+v", got)
	}
	if !reflect.DeepEqual(got.Telemetry, tel) {
		t.Fatalf("telemetry round trip:\n got %+v\nwant %+v", got.Telemetry, tel)
	}

	// A masked-out family must not appear on the wire, and must come back
	// empty even when the struct carried data for it.
	partial := *tel
	partial.Mask = WatchShards
	pframe, err := AppendResponse(nil, Response{ID: 1, Op: OpWatch, Telemetry: &partial})
	if err != nil {
		t.Fatal(err)
	}
	if len(pframe) >= len(frame) {
		t.Fatalf("shards-only frame (%dB) not smaller than all-families frame (%dB)", len(pframe), len(frame))
	}
	pgot, err := ReadResponse(bufio.NewReader(bytes.NewReader(pframe)))
	if err != nil {
		t.Fatal(err)
	}
	pt := pgot.Telemetry
	if len(pt.Shards) != 2 || len(pt.Tenants) != 0 || len(pt.WAL) != 0 || pt.TracesSampled != 0 {
		t.Fatalf("shards-only decode carried other families: %+v", pt)
	}

	// Encoder-side refusals.
	for _, resp := range []Response{
		{Op: OpWatch}, // no telemetry at all
		{Op: OpWatch, Telemetry: &Telemetry{Mask: 0}},                                                        // empty mask
		{Op: OpWatch, Telemetry: &Telemetry{Mask: WatchShards, NodeSnapshot: resd.NodeSnapshot{M: -1}}},      // negative capacity
		{Op: OpWatch, Telemetry: &Telemetry{Mask: WatchShards, NodeSnapshot: resd.NodeSnapshot{M: 1 << 31}}}, // a machine wider than the field
		{Op: OpSnapshot, M: 1 << 31}, // the same through Snapshot
		// Queue and Shards are one row per shard: a depth short of (or past)
		// the shard count has no encoding that decodes back to it.
		{Op: OpWatch, Telemetry: &Telemetry{Mask: WatchShards, NodeSnapshot: resd.NodeSnapshot{Shards: tel.Shards, Queue: tel.Queue[:1]}}},
		{Op: OpWatch, Telemetry: &Telemetry{Mask: WatchShards, NodeSnapshot: resd.NodeSnapshot{Shards: tel.Shards[:1], Queue: tel.Queue}}},
	} {
		if _, err := AppendResponse(nil, resp); !errors.Is(err, ErrFrame) {
			t.Errorf("AppendResponse(%+v) err = %v, want ErrFrame", resp, err)
		}
	}

	// A hostile shard count cannot force a large allocation: the count is
	// validated against the remaining payload before make.
	countOff := 4 + headerLen + 1 + 8 + 8 + 4 + 4 + 4 // len + header + code + seq + dropped + mask + M + floor
	bomb := bytes.Clone(pframe)
	binary.BigEndian.PutUint32(bomb[countOff:], 1<<15)
	if _, err := ReadResponse(bufio.NewReader(bytes.NewReader(bomb))); !errors.Is(err, ErrFrame) {
		t.Errorf("shard-count bomb err = %v, want ErrFrame", err)
	}
	// A hostile negative capacity fails the frame rather than decoding.
	negM := bytes.Clone(pframe)
	binary.BigEndian.PutUint32(negM[countOff-8:], 0xFFFFFFFF)
	if _, err := ReadResponse(bufio.NewReader(bytes.NewReader(negM))); !errors.Is(err, ErrFrame) {
		t.Errorf("negative-M frame err = %v, want ErrFrame", err)
	}
}

// TestTraceLayoutPerVersion pins the one trace entry there is: 70 fixed
// bytes, the client-send span among them, and the tenant name behind.
func TestTraceLayoutPerVersion(t *testing.T) {
	rec := resd.TraceRecord{
		Seq: 3, Arrival: time.Unix(0, 12345), ClientSend: 500 * time.Microsecond,
		Route: 10, Enqueue: 20, BatchStart: 30, Decision: 40,
		Start: 7, Shard: 1, Outcome: resd.TraceAdmitted, Tenant: "acme",
	}
	frame, err := AppendResponse(nil, Response{ID: 1, Op: OpTrace, Traces: []resd.TraceRecord{rec}})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 + headerLen + 1 + 4 + 70 + len(rec.Tenant); traceEntryLen != 70 || len(frame) != want {
		t.Fatalf("one-record Trace frame is %d bytes (traceEntryLen %d), want %d (70)", len(frame), traceEntryLen, want)
	}
	got, err := ReadResponse(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Traces) != 1 || got.Traces[0] != rec {
		t.Fatalf("trace round trip:\n got %+v\nwant %+v", got.Traces, rec)
	}
}

// TestWatchEndToEnd subscribes a client to a live server and asserts the
// pushed frames carry the admission, tenant, and trace counters that
// in-process polling would have shown — without the client issuing any
// Stats calls.
func TestWatchEndToEnd(t *testing.T) {
	reg := mustRegistry(t, 1<<20, tenant.Spec{})
	addr, _ := startServer(t, resd.Config{
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
	traces, err := c.Traces(0)
	if err != nil {
		t.Fatal(err)
	}
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
	out := make(chan Response, 1) // tiny writer queue: every second push drops
	done := make(chan struct{})
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		s.watchLoop(Request{ID: 1, Op: OpWatch, Interval: MinWatchInterval, Mask: WatchShards}, out, done)
	}()

	first := <-out
	if first.Telemetry == nil || first.Telemetry.Seq != 1 || first.Telemetry.Dropped != 0 {
		t.Fatalf("first frame = %+v", first.Telemetry)
	}
	// Stall: the buffer holds one frame (seq 2), then pushes drop.
	time.Sleep(20 * MinWatchInterval)
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
	frame, err := AppendRequest(nil, Request{ID: 1, Op: OpWatch, Interval: MinWatchInterval, Mask: WatchAll})
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
		buf, err = AppendRequest(buf, Request{ID: id, Op: OpWatch, Interval: time.Minute, Mask: WatchShards})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(nc)
	okFrames := 0
	for {
		resp, err := ReadResponse(br)
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
	ch, err := c.Watch(ctx, WatchOptions{Interval: MinWatchInterval, Mask: WatchShards})
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
	if _, err := c.Watch(context.Background(), WatchOptions{Mask: 1 << 30}); err == nil {
		t.Error("unknown mask accepted")
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

// TestWatchSLOOverLoopback runs a real engine behind a real server:
// a WatchSLO subscription must deliver the evaluated objective states,
// and a server without an engine must answer the same mask with an
// empty family instead of failing.
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
	ch, err := c.Watch(ctx, WatchOptions{Interval: MinWatchInterval, Mask: WatchSLO})
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

	// Default mask (0 → WatchAll) includes the family too.
	ch2, err := c.Watch(ctx, WatchOptions{Interval: MinWatchInterval})
	if err != nil {
		t.Fatal(err)
	}
	if tel := <-ch2; tel.Mask&WatchSLO == 0 || len(tel.SLO) != 1 {
		t.Fatalf("WatchAll frame mask %#x with %d SLO entries", tel.Mask, len(tel.SLO))
	}

	// No engine: the family is empty, not an error.
	bareAddr, _ := startServer(t, resd.Config{M: 8})
	bc := dial(t, bareAddr, Options{})
	bch, err := bc.Watch(ctx, WatchOptions{Interval: MinWatchInterval, Mask: WatchSLO})
	if err != nil {
		t.Fatal(err)
	}
	if tel := <-bch; len(tel.SLO) != 0 {
		t.Fatalf("engine-less server pushed %d SLO entries", len(tel.SLO))
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
	ch, err := c.Watch(context.Background(), WatchOptions{Interval: MinWatchInterval, Mask: WatchShards})
	if err != nil {
		t.Fatal(err)
	}
	<-ch // stream live
	c.Close()
	drainWatch(t, ch)
}
