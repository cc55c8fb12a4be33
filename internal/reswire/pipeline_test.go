package reswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resd"
	"repro/internal/tenant"
	"repro/internal/wal"
)

// watchdog fails the test with every goroutine's stack if done has not
// closed in time: on one core a lost wake-up is a hang, not a slow test.
func watchdog(t *testing.T, done <-chan struct{}, limit time.Duration, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(limit):
		buf := make([]byte, 1<<20)
		t.Fatalf("%s still running after %v\n%s", what, limit, buf[:runtime.Stack(buf, true)])
	}
}

// TestWindowStress drives the slot table and the connection writer from
// many callers at every window shape: each admission must come back with
// its own request's duration (unique per call, so a response routed to
// the wrong slot shows), each cancel must hit exactly the id just
// admitted, nobody may be left parked, and the books must balance. The
// 64-caller, window-256 shape is the sustained-pipelining case of the
// cork contract: a reply held for a size threshold, or until the
// connection went idle, would starve here and trip the call timeout.
func TestWindowStress(t *testing.T) {
	for _, window := range []int{1, 4, 256} {
		for _, conns := range []int{1, 2} {
			t.Run(fmt.Sprintf("window=%d/conns=%d", window, conns), func(t *testing.T) {
				callers, iters := 16, 150
				if window == 256 {
					callers = 64
				}
				addr, svc := startServer(t, resd.Config{Shards: 4, M: 64, Batch: 16})
				c := dial(t, addr, Options{Conns: conns, Pipeline: true, window: window, CallTimeout: 20 * time.Second})
				var wg sync.WaitGroup
				for g := 0; g < callers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < iters; i++ {
							ready, q, dur := core.Time(i), 1+(g+i)%8, core.Time(1+g*iters+i)
							resv, err := c.Admit(resd.Request{Ready: ready, Q: q, Dur: dur, Deadline: resd.NoDeadline})
							if err != nil {
								t.Errorf("caller %d admit %d: %v", g, i, err)
								return
							}
							if resv.Dur != dur || resv.Procs != q || resv.Start < ready {
								t.Errorf("caller %d got %+v for (ready=%v q=%d dur=%v): somebody else's response", g, resv, ready, q, dur)
								return
							}
							if err := c.Cancel(resv.ID); err != nil {
								t.Errorf("caller %d cancel %v: %v", g, resv.ID, err)
								return
							}
							if i%50 == 0 {
								if err := c.Cancel(resv.ID); !errors.Is(err, resd.ErrUnknownID) {
									t.Errorf("caller %d second cancel of %v: %v, want ErrUnknownID", g, resv.ID, err)
									return
								}
							}
						}
					}(g)
				}
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				watchdog(t, done, 60*time.Second, "callers")
				if t.Failed() {
					return
				}
				var admitted, cancelled uint64
				for _, st := range svc.Stats() {
					admitted, cancelled = admitted+st.Admitted, cancelled+st.Cancelled
					if st.Active != 0 || st.CommittedArea != 0 {
						t.Errorf("capacity not conserved: %d active, area %d", st.Active, st.CommittedArea)
					}
				}
				if want := uint64(callers * iters); admitted != want || cancelled != want {
					t.Errorf("server books admitted=%d cancelled=%d, want %d each", admitted, cancelled, want)
				}
			})
		}
	}
}

// TestCorkAnswersOneReadInOneWrite is the cork seen from the socket:
// requests that arrive in one write are answered in one write, so the
// client's first read returns every reply. The second phase sends bursts
// of ≈ 40 KiB, ten times the server's first read buffer: the first rounds
// may be split while the buffer doubles, and from the fifth on every
// burst must be answered in one write, which arrives in one read.
func TestCorkAnswersOneReadInOneWrite(t *testing.T) {
	m := NewMetrics(obs.NewRegistry(), "server")
	addr, _ := startServer(t, resd.Config{Shards: 2, M: 16}, func(s *Server) { s.SetMetrics(m) })
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	// phase sends rounds bursts of the requests op(id) makes for ids 1..n;
	// the first settled may be answered in several writes.
	phase := func(n, rounds, settled int, op func(id uint64) Request) {
		var frames, want []byte
		for id := uint64(1); id <= uint64(n); id++ {
			req := op(id)
			if frames, err = AppendRequest(frames, req); err != nil {
				t.Fatal(err)
			}
			// Replies differ in their ids and reservations only, not in size.
			if want, err = AppendResponse(want, Response{ID: id, Op: req.Op}); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, 2*len(want))
		for round := 0; round < rounds; round++ {
			writes := m.writes.Value()
			if _, err := nc.Write(frames); err != nil {
				t.Fatal(err)
			}
			got, err := nc.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			if round < settled { // the server's read buffer may still be growing
				if _, err := io.ReadFull(nc, buf[got:len(want)]); err != nil {
					t.Fatal(err)
				}
			} else if writes = m.writes.Value() - writes; got != len(want) || writes != 1 {
				t.Fatalf("%d-byte bursts, round %d: answered in %d writes, and the first read returned %d bytes of replies; want all %d (%d frames) in one",
					len(frames), round, writes, got, len(want), n)
			}
		}
	}
	// Reserve goes through a shard and Ping answers at once: the replies
	// are not all the same work.
	phase(12, 20, 0, func(id uint64) Request {
		if id%3 == 0 {
			return Request{ID: id, Op: OpPing}
		}
		return Request{ID: id, Op: OpReserve, Procs: 1, Dur: 1, Deadline: resd.NoDeadline}
	})
	long := strings.Repeat("t", tenant.MaxNameLen)
	phase(128, 12, 4, func(id uint64) Request {
		return Request{ID: id, Op: OpReserve, Tenant: long, Procs: 1, Dur: 1, Deadline: resd.NoDeadline}
	})
}

// TestServerFansOutOnlyUnderALog pins who serves a request. Sixty-four
// admissions arrive in one write. Without a log, or with one that never
// fsyncs, the connection's reader serves them itself: the burst leaves no
// goroutine behind. With a log that fsyncs each gets a handler, so they
// wait in the shard's queue together and share commits — fewer turns than
// operations.
func TestServerFansOutOnlyUnderALog(t *testing.T) {
	const n = 64
	for _, mode := range []wal.SyncMode{"", wal.SyncNone, wal.SyncBatch} {
		cfg := resd.Config{Shards: 1, M: 256}
		if mode != "" {
			cfg.WAL = &wal.Options{Dir: t.TempDir(), Sync: mode}
		}
		fsyncs := mode == wal.SyncBatch
		addr, svc := startServer(t, cfg)
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(30 * time.Second))
		fr := newFrameReader(nc)
		burst := func(reqs int) {
			var frames []byte
			for id := 1; id <= reqs; id++ {
				if frames, err = AppendRequest(frames, Request{ID: uint64(id), Op: OpReserve, Procs: 1, Dur: 1, Deadline: resd.NoDeadline}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := nc.Write(frames); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < reqs; i++ {
				if resp, err := fr.readResponse(); err != nil || resp.Code != CodeOK {
					t.Fatalf("sync=%q: reply %d of %d: %+v, %v", mode, i+1, reqs, resp, err)
				}
			}
		}
		burst(1) // the connection's reader exists from here on
		before, st := runtime.NumGoroutine(), svc.Stats()[0]
		burst(n)
		grew, st2 := runtime.NumGoroutine()-before, svc.Stats()[0]
		ops, turns := st2.Ops-st.Ops, st2.Batches-st.Batches
		switch {
		case !fsyncs && grew > 2:
			t.Errorf("sync=%q: a burst of %d left %d goroutines behind; without an fsync to share the reader serves", mode, n, grew)
		case !fsyncs && turns != ops:
			t.Errorf("sync=%q: %d operations took %d turns; the reader serves one at a time", mode, ops, turns)
		case fsyncs && grew < 4:
			t.Errorf("sync=%q: a burst of %d left only %d handlers", mode, n, grew)
		case fsyncs && 2*turns > ops:
			t.Errorf("sync=%q: %d operations took %d turns; the requests of one read should share fsyncs", mode, ops, turns)
		}
	}
}

// TestCorkHoldsNoReplyBehindALaterRead pins the head-of-line bound on the
// writer itself: a batch that still owes a reply corks only its own
// replies — one from a later read leaves at once, and takes what is
// pending with it.
func TestCorkHoldsNoReplyBehindALaterRead(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	w := newConnWriter(server, false, func(err error) { t.Errorf("writer failed: %v", err) })
	fr := newFrameReader(client)
	client.SetReadDeadline(time.Now().Add(30 * time.Second))

	a := new(batch) // a read of two requests, sealed; only the first has answered
	w.put(nil, a, -2)
	w.reply(&Response{ID: 1, Op: OpPing}, a)
	w.mu.Lock()
	if pending := len(w.buf); pending == 0 || !w.pending.Load() || w.want || w.flushing {
		t.Fatalf("half-answered batch: %d bytes pending (flag %v), want=%v flushing=%v; should sit corked",
			pending, w.pending.Load(), w.want, w.flushing)
	}
	w.mu.Unlock()

	go w.reply(&Response{ID: 3, Op: OpPing}, nil) // from a later read, alone
	for _, id := range []uint64{1, 3} {
		resp, err := fr.readResponse()
		if err != nil || resp.ID != id {
			t.Fatalf("reading reply %d while request 2 is unanswered: %+v, %v", id, resp, err)
		}
	}
	if w.pending.Load() { // the flusher swapped the buffer out before writing it
		t.Fatal("pending still set after a write took every frame")
	}
	go w.reply(&Response{ID: 2, Op: OpPing}, a) // settles a: flushes
	if resp, err := fr.readResponse(); err != nil || resp.ID != 2 {
		t.Fatalf("last reply of the batch: %+v, %v", resp, err)
	}
}

// TestSlotReuseDropsTheLateResponse runs a one-slot window against a
// server that answers the first request late: call 1 times out, call 2
// takes the same slot under the next generation, and the late answer to
// call 1 — sent first, and carrying another reservation — must not reach
// it.
func TestSlotReuseDropsTheLateResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ids := make(chan uint64, 2)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		fr := newFrameReader(nc)
		first, err := fr.readRequest()
		if err != nil {
			return
		}
		second, err := fr.readRequest() // arrives once call 1 has timed out
		if err != nil {
			return
		}
		ids <- first.ID
		ids <- second.ID
		var buf []byte
		for i, req := range []Request{first, second} {
			buf, _ = AppendResponse(buf, Response{ID: req.ID, Op: req.Op, Resv: resd.Reservation{ID: resd.ID(111 * (i + 1))}})
		}
		nc.Write(buf)
		for err == nil { // hold the connection, answering nothing, until the client closes
			_, err = fr.readRequest()
		}
	}()

	c := dial(t, ln.Addr().String(), Options{Pipeline: true, window: 1, CallTimeout: 50 * time.Millisecond})
	if _, err := c.Admit(resd.Request{Q: 1, Dur: 1, Deadline: resd.NoDeadline}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("call 1: err = %v, want ErrTimeout", err)
	}
	resv, err := c.Admit(resd.Request{Q: 1, Dur: 1, Deadline: resd.NoDeadline})
	if err != nil || resv.ID != 222 {
		t.Fatalf("call 2 got reservation %v, err %v; want 222 (111 is the late answer to call 1)", resv.ID, err)
	}
	first, second := <-ids, <-ids
	if uint32(first) != uint32(second) || first>>32 == second>>32 {
		t.Fatalf("request ids %#x, %#x: want the same slot under different generations", first, second)
	}
	if err := c.Ping(); err == nil {
		t.Fatal("the test server answers nothing more; Ping should have timed out")
	} else if !errors.Is(err, ErrTimeout) {
		t.Fatalf("connection after the dropped late response: %v, want a plain ErrTimeout", err)
	}
}

// TestStuckPeerBoundsServer pipelines Snapshot requests from a peer that
// never reads a reply. Once the socket stops taking writes the pending
// buffer must stop growing: handlers wait, the reader stops pulling
// frames, and far fewer requests are executed than were sent. Other
// connections are unaffected and Close still returns.
func TestStuckPeerBoundsServer(t *testing.T) {
	svc, err := resd.New(resd.Config{M: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i := 0; i < 400; i++ { // ≈ 800 segments: every Snapshot reply is ≈ 10 KB
		if _, err := svc.Admit(resd.Request{Ready: core.Time(10 * i), Q: 1 + i%7, Dur: 5, Deadline: resd.NoDeadline}); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	served := make(chan struct{})
	go func() { defer close(served); srv.Serve(ln) }()

	stuck, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	const sent = 32 << 10 // ≈ 320 MB of replies: no socket buffer holds that
	var frames []byte
	for id := uint64(1); id <= sent; id++ {
		frames, _ = AppendRequest(frames, Request{ID: id, Op: OpSnapshot})
	}
	go func() {
		stuck.SetWriteDeadline(time.Now().Add(20 * time.Second))
		stuck.Write(frames) // may itself block once the server stops reading
	}()
	// A stall is the absence of progress, which no event marks: sample the
	// shard's op count until it has held still for ten samples.
	ops := func() uint64 { return svc.Stats()[0].Ops }
	base, last, quiet := ops(), uint64(0), 0
	for deadline := time.Now().Add(30 * time.Second); quiet < 10; {
		if time.Now().After(deadline) {
			t.Fatal("server still executing the stuck peer's requests after 30s")
		}
		time.Sleep(50 * time.Millisecond)
		if now := ops(); now == last {
			quiet++
		} else {
			last, quiet = now, 0
		}
	}
	if done := last - base; done >= sent/2 {
		t.Fatalf("server executed %d of the %d requests of a peer that reads nothing", done, sent)
	} else {
		t.Logf("executed %d of %d requests before stalling", done, sent)
	}

	c := dial(t, ln.Addr().String(), Options{Pipeline: true, CallTimeout: 10 * time.Second})
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping beside a stuck connection: %v", err)
	}
	closed := make(chan struct{})
	go func() { srv.Close(); <-served; close(closed) }()
	watchdog(t, closed, 20*time.Second, "Server.Close with a stuck connection")
}

// TestCallTimeoutBoundsTheFlusher faces callers with a peer that accepts
// and never reads, and a backlog far larger than the socket buffers: the
// caller that is flushing sits in a socket write, and must come back
// within CallTimeout like everybody else — the sweeper finds the write
// stalled past CallTimeout and fails the connection, and every call ends
// in ErrTimeout or ErrClientClosed.
func TestCallTimeoutBoundsTheFlusher(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		nc.(*net.TCPConn).SetReadBuffer(4 << 10)
		t.Cleanup(func() { nc.Close() }) // held open, never read
	}()
	const (
		callers = 1024 // × ≈ 300 B per frame: several times what the shrunken socket buffers take
		timeout = 250 * time.Millisecond
	)
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc.(*net.TCPConn).SetWriteBuffer(4 << 10)
	opts, err := Options{Pipeline: true, window: callers, CallTimeout: timeout}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	cc := newClientConn(nc, opts)
	defer cc.close(ErrClientClosed)
	req := Request{Op: OpReserve, Tenant: strings.Repeat("t", 255), Procs: 1, Dur: 1, Deadline: resd.NoDeadline}
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for err := error(nil); !errors.Is(err, ErrClientClosed); {
				begin := time.Now()
				_, err = cc.call(req, nil)
				if !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrClientClosed) {
					t.Errorf("call against a peer that never reads: %v", err)
					return
				}
				if took := time.Since(begin); took > 20*timeout {
					t.Errorf("call took %v with CallTimeout %v", took, timeout)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	watchdog(t, done, 60*time.Second, "callers")
	if _, err := cc.call(req, nil); !errors.Is(err, ErrClientClosed) || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("connection after a write nobody read: %v; want ErrClientClosed wrapping the write timeout", err)
	}
}

// TestRoundTripAllocations guards the per-call allocation budget: one
// loopback Admit and Cancel, client and server in this process and warm,
// with a call timeout set (the connection's sweeper enforces it, so a call
// arms no timer). Neither the service nor the wire allocates per call, and
// nothing on the path draws from a sync.Pool, which drops a share of what
// is put back under -race; the bound leaves one allocation of slack.
func TestRoundTripAllocations(t *testing.T) {
	addr, _ := startServer(t, resd.Config{Shards: 4, M: 64})
	c := dial(t, addr, Options{Pipeline: true, CallTimeout: 5 * time.Second})
	pair := func() {
		resv, err := c.Admit(resd.Request{Q: 2, Dur: 10, Deadline: resd.NoDeadline})
		if err == nil {
			err = c.Cancel(resv.ID)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		pair()
	}
	if perOp := testing.AllocsPerRun(500, pair) / 2; perOp > 1 {
		t.Fatalf("%.1f allocations per round trip, want <= 1", perOp)
	} else {
		t.Logf("%.2f allocations per round trip", perOp)
	}
}

// TestInlineServerAllocations guards the server's share of that budget: a
// server without a log serves each read's requests on the connection's
// reader, and once warm it allocates nothing per burst — not the read,
// not the cork, not the replies. The peer is a raw connection that writes
// pre-encoded bursts of admissions and then of their cancels, and reads the
// replies into one buffer, so every allocation counted is the server's.
func TestInlineServerAllocations(t *testing.T) {
	addr, _ := startServer(t, resd.Config{Shards: 2, M: 64})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	const n = 8
	var reserves, cancels []byte
	for id := uint64(1); id <= n; id++ {
		reserves, _ = AppendRequest(reserves, Request{ID: id, Op: OpReserve, Procs: 2, Dur: 10, Deadline: resd.NoDeadline})
		cancels, _ = AppendRequest(cancels, Request{ID: id, Op: OpCancel})
	}
	frameLen := func(op Op) int {
		frame, err := AppendResponse(nil, Response{ID: 1, Op: op})
		if err != nil {
			t.Fatal(err)
		}
		return len(frame)
	}
	reserved, cancelled := frameLen(OpReserve), frameLen(OpCancel)
	replies := make([]byte, n*max(reserved, cancelled))
	burst := func() {
		if _, err := nc.Write(reserves); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(nc, replies[:n*reserved]); err != nil {
			t.Fatal(err)
		}
		// Each reservation's id goes into the cancel frame with the same
		// request id; the Resv field is the frame's last eight bytes.
		for i := range n {
			resp, err := DecodeResponse(replies[i*reserved+4 : (i+1)*reserved])
			if err != nil || resp.Code != CodeOK {
				t.Fatalf("reply %d: %+v, %v", i, resp, err)
			}
			off := cancels[(i+1)*len(cancels)/n-8:]
			binary.BigEndian.PutUint64(off, uint64(resp.Resv.ID))
		}
		if _, err := nc.Write(cancels); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(nc, replies[:n*cancelled]); err != nil {
			t.Fatal(err)
		}
		for i := range n {
			if resp, err := DecodeResponse(replies[i*cancelled+4 : (i+1)*cancelled]); err != nil || resp.Code != CodeOK {
				t.Fatalf("cancel reply %d: %+v, %v", i, resp, err)
			}
		}
	}
	for range 100 {
		burst()
	}
	if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
		t.Fatalf("%.3f allocations per burst of %d admissions and %d cancels, want 0", allocs, n, n)
	}
}
