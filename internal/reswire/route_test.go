package reswire

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/resd"
)

// pipeClient is a client over n in-memory connections whose far ends
// nobody reads: route's choices can be arranged and read off without a
// server, since nothing here ever flushes.
func pipeClient(t *testing.T, n int, opts Options) *Client {
	t.Helper()
	opts, err := opts.normalize()
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{done: make(chan struct{})}
	for range n {
		near, far := net.Pipe()
		t.Cleanup(func() { far.Close() })
		c.conns = append(c.conns, newClientConn(near, opts))
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// hold leaves one frame in cc's writer that no write has taken: corked
// against a read that still owes a reply, as a server's writer holds a
// reply until its read's last one is in.
func hold(t *testing.T, cc *clientConn) {
	t.Helper()
	frame := func(dst []byte) ([]byte, error) { return AppendRequest(dst, Request{Op: OpPing}) }
	if err := cc.w.put(frame, &batch{owed: 2}, 1); err != nil {
		t.Fatal(err)
	}
	if !cc.w.pending.Load() {
		t.Fatal("a frame waits in the writer, and pending is not set")
	}
}

// connIndex names the connection route picked.
func connIndex(t *testing.T, c *Client, cc *clientConn) int {
	t.Helper()
	for i, x := range c.conns {
		if x == cc {
			return i
		}
	}
	t.Fatal("route picked a connection the client does not have")
	return -1
}

func TestRouteJoinsThePendingConnection(t *testing.T) {
	c := pipeClient(t, 3, Options{Conns: 3, Pipeline: true, window: 4})
	hold(t, c.conns[1])
	for range 4 { // the whole window: every call joins the forming write
		cc, s := c.route()
		if i := connIndex(t, c, cc); i != 1 || s == nil {
			t.Fatalf("routed to connection %d (slot %v), want 1 with a slot: its write is forming", i, s)
		}
	}
}

func TestRoutePassesOverAFullPendingWindow(t *testing.T) {
	c := pipeClient(t, 3, Options{Conns: 3, Pipeline: true, window: 2})
	hold(t, c.conns[1])
	for range 2 {
		if c.conns[1].tryAcquire() == nil {
			t.Fatal("no slot in a window of 2 nobody uses")
		}
	}
	// Round-robin, and a turn that falls on the full window goes on to
	// the next connection.
	for _, want := range []int{0, 2, 2, 0, 2, 2} {
		cc, s := c.route()
		if i := connIndex(t, c, cc); i != want || s == nil {
			t.Fatalf("routed to connection %d (slot %v), want %d with a slot", i, s, want)
		}
		cc.free <- s
	}
}

func TestRouteRoundRobinWithoutPending(t *testing.T) {
	c := pipeClient(t, 3, Options{Conns: 3, Pipeline: true})
	for k := range 7 {
		cc, s := c.route()
		if i := connIndex(t, c, cc); i != k%3 || s == nil {
			t.Fatalf("call %d routed to connection %d (slot %v), want %d with a slot", k, i, s, k%3)
		}
		cc.free <- s
	}
}

func TestRouteUnpipelinedNeverWaitsBesideAFreeSlot(t *testing.T) {
	c := pipeClient(t, 3, Options{Conns: 3})
	// Connection 0 carries a call whose request is still unwritten: it is
	// pending, and its one slot is taken.
	if c.conns[0].tryAcquire() == nil {
		t.Fatal("no slot on an idle connection")
	}
	hold(t, c.conns[0])
	// Connection 1 waits for a response.
	if c.conns[1].tryAcquire() == nil {
		t.Fatal("no slot on an idle connection")
	}
	for k := range 4 {
		cc, s := c.route()
		if i := connIndex(t, c, cc); i != 2 || s == nil {
			t.Fatalf("call %d routed to connection %d (slot %v), want 2, the one free slot", k, i, s)
		}
		cc.free <- s
	}
	// With every window full the call goes round-robin and waits there.
	if c.conns[2].tryAcquire() == nil {
		t.Fatal("connection 2's slot did not come back")
	}
	if _, s := c.route(); s != nil {
		t.Fatal("a slot taken from a full window of 1")
	}
}

// TestWritesCounted: each side counts its socket writes. Calls made one
// at a time leave one frame per write each way, so K calls are K client
// writes and K server writes.
func TestWritesCounted(t *testing.T) {
	reg := obs.NewRegistry()
	addr, _ := startServer(t, resd.Config{M: 8}, func(s *Server) { s.SetMetrics(NewMetrics(reg, "server")) })
	c := dial(t, addr, Options{Pipeline: true, Metrics: NewMetrics(reg, "client")})
	const k = 25
	for range k {
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("wire metrics scrape does not parse: %v\n%s", err, buf.String())
	}
	for _, side := range []string{"client", "server"} {
		if v, ok := exp.Value("reswire_writes_total", map[string]string{"side": side}); !ok || v != k {
			t.Errorf("%s writes = %v, %v; want %d", side, v, ok, k)
		}
	}
}

// TestWatchWritesCounted: a Watch connection counts in its client's wire
// metrics: the subscribe frame is one client write, and the pushed frames
// are received bytes.
func TestWatchWritesCounted(t *testing.T) {
	reg := obs.NewRegistry()
	addr, _ := startServer(t, resd.Config{M: 8})
	c := dial(t, addr, Options{Metrics: NewMetrics(reg, "client")})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := c.Watch(ctx, WatchOptions{Interval: MinWatchInterval})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("no telemetry frame")
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("wire metrics scrape does not parse: %v\n%s", err, buf.String())
	}
	if v, ok := exp.Value("reswire_writes_total", map[string]string{"side": "client"}); !ok || v != 1 {
		t.Errorf("client writes = %v, %v; want the one subscribe write", v, ok)
	}
	if v, ok := exp.Value("reswire_bytes_total", map[string]string{"side": "client", "dir": "rx"}); !ok || v == 0 {
		t.Errorf("client rx bytes = %v, %v; want the pushed frames", v, ok)
	}
}
