package reswire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/resd"
)

// ErrClientClosed reports a call on a closed client (or one whose
// connection died mid-call; the underlying cause is wrapped).
var ErrClientClosed = errors.New("reswire: client closed")

// ErrTimeout reports a call that exceeded Options.CallTimeout. The
// connection stays usable — the abandoned request's late response is
// discarded when it arrives — but the operation may still have executed
// on the server (a timed-out Reserve can still have admitted).
var ErrTimeout = errors.New("reswire: call timeout")

// Options parameterises Dial.
type Options struct {
	// Conns is the number of TCP connections callers are spread over
	// (default 1): a call joins a connection whose next write is already
	// forming, and otherwise goes round-robin (doc.go, "Client").
	Conns int
	// Pipeline allows many requests in flight per connection; callers
	// that send at the same moment share one socket write (doc.go,
	// "Writing"). Off, a connection carries one request at a time — the
	// classic RPC shape, kept as the benchmark baseline.
	Pipeline bool
	// CallTimeout bounds each call, from its start to its response
	// (ErrTimeout). One sweeper per connection enforces it every
	// CallTimeout/8, so a call fails between CallTimeout and 9/8 of it; the
	// sweeper also fails the connection (ErrClientClosed) when a socket
	// write has been in progress for longer than CallTimeout. 0, the
	// default, waits forever.
	CallTimeout time.Duration
	// metrics attaches wire instrumentation (side "client"): only tests
	// set it, and nil, the default, leaves it off.
	metrics *Metrics
	// window caps the requests in flight per connection: 256 with
	// Pipeline (only tests set another), one without. It is the size the
	// slot table may grow to; the slot index is the low half of every id.
	window int
}

func (o Options) normalize() (Options, error) {
	if o.Conns == 0 {
		o.Conns = 1
	}
	if o.Conns < 1 {
		return o, fmt.Errorf("reswire: Conns=%d, need >= 1", o.Conns)
	}
	if o.window == 0 {
		o.window = 256
	}
	if o.CallTimeout < 0 {
		return o, fmt.Errorf("reswire: CallTimeout=%v, need >= 0", o.CallTimeout)
	}
	if !o.Pipeline {
		o.window = 1
	}
	return o, nil
}

// Client is the remote face of a resd.Service: Admit, Cancel, Query,
// Snapshot, Stats and Ping with the same signatures and the same typed
// errors (errors.Is(err, resd.ErrDeadline) works on both sides of the
// wire). All methods are safe for concurrent use; concurrent callers are
// multiplexed over the configured connections. After Close every method
// returns ErrClientClosed.
type Client struct {
	addr   string
	m      *Metrics // counts the Watch connections' bytes and writes too
	conns  []*clientConn
	rr     atomic.Uint64
	closed atomic.Bool
	done   chan struct{} // closed by Close; ends Watch streams
}

// Dial connects to a reswire server.
func Dial(addr string, opts Options) (*Client, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	c := &Client{addr: addr, m: opts.metrics, done: make(chan struct{})}
	for i := 0; i < opts.Conns; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("reswire: dial %s: %w", addr, err)
		}
		c.conns = append(c.conns, newClientConn(nc, opts))
	}
	return c, nil
}

// Close tears down every connection and ends every Watch stream.
// In-flight and subsequent calls fail with ErrClientClosed.
func (c *Client) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		close(c.done)
	}
	for _, cc := range c.conns {
		cc.close(ErrClientClosed)
	}
	return nil
}

// call performs one round trip on the connection route picks and maps
// the response code to an error.
func (c *Client) call(req Request) (Response, error) {
	if c.closed.Load() {
		return Response{}, ErrClientClosed
	}
	cc, s := c.route()
	resp, err := cc.call(req, s)
	if err != nil {
		return Response{}, err
	}
	if resp.Op != req.Op {
		return Response{}, fmt.Errorf("%w: response op %s for %s request", ErrFrame, resp.Op, req.Op)
	}
	if resp.Code != CodeOK {
		return Response{}, resp.Code.Err(resp.Detail)
	}
	return resp, nil
}

// route picks the connection a call goes out on (doc.go, "Client") and,
// when it can without waiting, takes the call's slot there. It prefers the
// first connection whose writer holds frames no write has taken yet, so
// that the call leaves in the same write as they do. Failing that it goes
// round-robin, to the first connection from the next one in turn that has
// a free slot. Only when every window is full does it return no slot, and
// the call waits on the round-robin pick.
func (c *Client) route() (*clientConn, *slot) {
	for _, cc := range c.conns {
		if cc.w.pending.Load() {
			if s := cc.tryAcquire(); s != nil {
				return cc, s
			}
		}
	}
	n := len(c.conns)
	next := int(c.rr.Add(1)-1) % n
	for i := range n {
		cc := c.conns[(next+i)%n]
		if s := cc.tryAcquire(); s != nil {
			return cc, s
		}
	}
	return c.conns[next], nil
}

// Admit admits a reservation exactly like resd.Service.Admit but over
// the wire: same resd.Request, same typed errors (a REJECTED_DEADLINE
// response surfaces as resd.ErrDeadline, REJECTED_QUOTA as
// tenant.ErrQuota). Remember req.Deadline is literal — set
// resd.NoDeadline to disable the deadline check.
//
// Every frame carries the client's send stamp, so when the server
// samples the admission its TraceRecord shows the true cross-wire span
// (TraceRecord.ClientSend). Set req.Trace to force the sample: the
// server records the admission in its trace ring regardless of the
// sampling rate (a no-op on servers running with tracing disabled).
func (c *Client) Admit(req resd.Request) (resd.Reservation, error) {
	stamp := req.ClientSend
	if stamp == 0 {
		stamp = time.Now().UnixNano()
	}
	resp, err := c.call(Request{Op: OpReserve, Tenant: req.Tenant, Ready: req.Ready, Procs: req.Q, Dur: req.Dur, Deadline: req.Deadline,
		Stamp: stamp, Traced: req.Trace})
	if err != nil {
		return resd.Reservation{}, err
	}
	return resp.Resv, nil
}

// QuotaGet reads one tenant's quota state from the server's registry ("" =
// the default tenant).
func (c *Client) QuotaGet(ten string) (QuotaInfo, error) {
	resp, err := c.call(Request{Op: OpQuotaGet, Tenant: ten})
	if err != nil {
		return QuotaInfo{}, err
	}
	return resp.Quota, nil
}

// QuotaSet re-budgets a tenant at runtime: its share of the server's
// capacity becomes share ∈ (0,1]. An unknown tenant gets an account,
// mirroring what its first admission would do; past tenant.MaxAccounts
// the server refuses it with BAD_REQUEST.
func (c *Client) QuotaSet(ten string, share float64) error {
	_, err := c.call(Request{Op: OpQuotaSet, Tenant: ten, Share: share})
	return err
}

// Cancel releases an admitted reservation.
func (c *Client) Cancel(id resd.ID) error {
	_, err := c.call(Request{Op: OpCancel, Resv: uint64(id)})
	return err
}

// Query returns the per-shard free capacity at time t.
func (c *Client) Query(t core.Time) ([]int, error) {
	resp, err := c.call(Request{Op: OpQuery, Ready: t})
	if err != nil {
		return nil, err
	}
	return resp.Free, nil
}

// Stats returns the per-shard load summaries.
func (c *Client) Stats() ([]resd.ShardStats, error) {
	resp, err := c.call(Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// Ping performs one empty round trip (liveness / RTT probe).
func (c *Client) Ping() error {
	_, err := c.call(Request{Op: OpPing})
	return err
}

// WatchOptions parameterises Client.Watch.
type WatchOptions struct {
	// Interval is the requested push period (default 1s). The server
	// clamps it into [MinWatchInterval, MaxWatchInterval].
	Interval time.Duration
}

// watchBuffer is the capacity of the channel Watch returns. A consumer
// that stops draining eventually back-pressures through TCP; the server
// then drops frames and marks the gap in the next delivered frame's
// Dropped count rather than blocking anything.
const watchBuffer = 16

// watchRedialDelay paces resubscription attempts after a Watch stream's
// connection dies.
const watchRedialDelay = 100 * time.Millisecond

// Watch subscribes to server-pushed telemetry and returns the stream.
// Each received frame is one Telemetry: the server's whole node
// snapshot, pushed every opts.Interval without
// the client issuing any polls. The subscription rides its own
// connection; if that connection dies the stream redials and
// resubscribes transparently until ctx is cancelled or the client is
// closed (the channel then closes). After a resubscribe the frame Seq
// and Dropped counters restart — the telemetry counters themselves are
// cumulative on the server, so consumer-side deltas stay monotone
// across reconnects.
func (c *Client) Watch(ctx context.Context, opts WatchOptions) (<-chan Telemetry, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	if opts.Interval < 0 {
		return nil, fmt.Errorf("reswire: watch interval %v negative", opts.Interval)
	}
	if opts.Interval == 0 {
		opts.Interval = time.Second
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The first subscription happens synchronously so the caller learns
	// about an unreachable server immediately, not as a silent
	// redial-forever stream.
	nc, err := c.watchDial(opts)
	if err != nil {
		return nil, err
	}
	ch := make(chan Telemetry, watchBuffer)
	go c.watchStream(ctx, nc, opts, ch)
	return ch, nil
}

// watchDial opens a dedicated connection and writes the subscribe frame.
func (c *Client) watchDial(opts WatchOptions) (net.Conn, error) {
	raw, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("reswire: watch dial %s: %w", c.addr, err)
	}
	nc := c.m.wrap(raw)
	buf, err := AppendRequest(nil, Request{ID: 1, Op: OpWatch, Interval: opts.Interval})
	if err != nil {
		nc.Close()
		return nil, err
	}
	if _, err := nc.Write(buf); err != nil {
		nc.Close()
		return nil, fmt.Errorf("reswire: watch subscribe %s: %w", c.addr, err)
	}
	return nc, nil
}

// watchStream pumps one Watch subscription, redialling and resubscribing
// when its connection dies, until ctx is cancelled, the client closes,
// or the server refuses the subscription outright.
func (c *Client) watchStream(ctx context.Context, nc net.Conn, opts WatchOptions, ch chan<- Telemetry) {
	defer close(ch)
	for {
		if !c.watchRead(ctx, nc, ch) {
			return
		}
		for {
			select {
			case <-ctx.Done():
				return
			case <-c.done:
				return
			case <-time.After(watchRedialDelay):
			}
			var err error
			if nc, err = c.watchDial(opts); err == nil {
				break
			}
		}
	}
}

// watchRead forwards one connection's telemetry frames into ch until the
// connection dies. It reports whether the stream should resubscribe:
// true after a transport failure, false on cancellation or a server
// refusal (which a retry cannot fix).
func (c *Client) watchRead(ctx context.Context, nc net.Conn, ch chan<- Telemetry) bool {
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		// Unblock the read below when the stream is cancelled.
		select {
		case <-ctx.Done():
		case <-c.done:
		case <-stop:
		}
		nc.Close()
	}()
	fr := newFrameReader(nc)
	for {
		resp, err := fr.readResponse()
		if err != nil {
			return ctx.Err() == nil && !c.closed.Load()
		}
		if resp.Op != OpWatch || resp.Code != CodeOK || resp.Telemetry == nil {
			// The server refused the subscription (or broke protocol);
			// resubscribing would only repeat the answer.
			return false
		}
		select {
		case ch <- *resp.Telemetry:
		case <-ctx.Done():
			return false
		case <-c.done:
			return false
		}
	}
}

// Snapshot fetches one shard's capacity profile and rebuilds it as a
// local index, so remote callers can run FindSlot/FreeArea/What-if queries
// without further round trips. Like the in-process Snapshot, the caller
// owns the index it gets (profile.CapacityIndex).
func (c *Client) Snapshot(shard int) (profile.CapacityIndex, error) {
	resp, err := c.call(Request{Op: OpSnapshot, Shard: shard})
	if err != nil {
		return nil, err
	}
	return rebuildSnapshot(resp.M, resp.Segs)
}

// rebuildSnapshot turns a Snapshot response's segments back into a
// Timeline. The segments must tile [0, +inf): the first starts at 0 and the
// starts increase.
func rebuildSnapshot(m int, segs []Segment) (*profile.Timeline, error) {
	if m < 1 {
		return nil, fmt.Errorf("%w: snapshot machine size %d", ErrFrame, m)
	}
	// A profile always has a segment at 0; without one the gap before the
	// first start would rebuild as fully free.
	if len(segs) == 0 || segs[0].Start != 0 {
		return nil, fmt.Errorf("%w: snapshot segments do not start at 0", ErrFrame)
	}
	tl := profile.New(m)
	for i, seg := range segs {
		// Validate every segment — including fully-free ones — before any
		// commit: a malformed sequence must fail loudly, not rebuild a
		// quietly divergent profile.
		if seg.Free < 0 || seg.Free > m {
			return nil, fmt.Errorf("%w: segment %d free %d outside [0,%d]", ErrFrame, i, seg.Free, m)
		}
		dur := core.Infinity // last segment extends unbounded
		if i+1 < len(segs) {
			if segs[i+1].Start <= seg.Start {
				return nil, fmt.Errorf("%w: segment starts not increasing at %d", ErrFrame, i)
			}
			dur = segs[i+1].Start - seg.Start
		}
		held := m - seg.Free
		if held == 0 {
			continue
		}
		if err := tl.Commit(seg.Start, dur, held); err != nil {
			return nil, fmt.Errorf("reswire: rebuild snapshot: %w", err)
		}
	}
	return tl, nil
}

// clientConn is one multiplexed connection (doc.go, "Client"): a caller
// takes a slot, sends its request under the slot's id, flushing the
// connection's writer itself if nobody else is, and parks on the slot;
// the reader wakes it with the response. Nothing is allocated per call.
type clientConn struct {
	nc      net.Conn
	m       *Metrics
	timeout time.Duration // 0 = wait forever
	w       *connWriter
	free    chan *slot // idle slots; its capacity is the in-flight window

	mu    sync.Mutex // guards err, slots and every slot's fields but idx and wake
	slots []*slot    // made on demand, so as many as calls were ever in flight at once
	err   error      // why the connection died; set before closed closes

	closeOnce sync.Once
	closed    chan struct{}
}

// slot is one unit of the in-flight window. A request id is gen<<32|idx,
// and gen moves on with every call: the late response to a call that timed
// out can never be taken for the response to the slot's next occupant.
// Three parties can end a parked call — the reader with its response, the
// sweeper with ErrTimeout, close with the connection's cause — and the one
// that clears waiting sends the call's one wake-up.
type slot struct {
	idx, gen uint32
	waiting  bool          // the caller of generation gen is parked on wake
	late     int           // timed-out calls whose response is still to come
	due      time.Duration // when the parked call times out, as an offset from epoch
	op       Op            // the parked call's op, for the timeout's message
	wake     chan struct{} // capacity 1: one send per park, so no sender blocks
	resp     Response      // the reader's delivery, the caller's once woken
	err      error         // or why the call ended without one
}

// epoch is the instant the package's monotonic offsets count from: a
// parked call's due, and the start of a client connection's socket write.
var epoch = time.Now()

// timers recycles the timeout timers of waits for a full window's slot.
var timers = sync.Pool{New: func() any { return time.NewTimer(time.Hour) }}

func newClientConn(nc net.Conn, opts Options) *clientConn {
	cc := &clientConn{nc: nc, m: opts.metrics, timeout: opts.CallTimeout,
		free: make(chan *slot, opts.window), closed: make(chan struct{})}
	cc.w = newConnWriter(cc.m.wrap(nc), cc.timeout > 0, cc.close)
	go cc.readLoop()
	if cc.timeout > 0 {
		go cc.sweep()
	}
	return cc
}

// close marks the connection dead, wakes every parked call and closes the
// socket; every parked and later call fails with cause, wrapped for
// errors.Is on ErrClientClosed. Idempotent; the first cause wins.
func (cc *clientConn) close(cause error) {
	cc.closeOnce.Do(func() {
		if !errors.Is(cause, ErrClientClosed) {
			cause = fmt.Errorf("%w: %v", ErrClientClosed, cause)
		}
		cc.mu.Lock()
		cc.err = cause
		for _, s := range cc.slots {
			s.end(cause)
		}
		cc.mu.Unlock()
		close(cc.closed)
		cc.nc.Close()
	})
}

// end wakes the call parked on s, if there is one, to return with err
// (nil: with s.resp). Its connection's mu must be held.
func (s *slot) end(err error) {
	if s.waiting {
		s.waiting, s.err = false, err
		s.wake <- struct{}{}
	}
}

// call sends one request in slot s, or in the first slot to come free
// when s is nil, and blocks for its response, bounded by the connection's
// call timeout when one is configured.
func (cc *clientConn) call(req Request, s *slot) (Response, error) {
	var due time.Duration
	if cc.timeout > 0 {
		due = time.Since(epoch) + cc.timeout
	}
	if s == nil {
		var err error
		if s, err = cc.acquire(); err != nil {
			return Response{}, err
		}
	}
	start := cc.m.begin()
	defer cc.m.end()
	cc.mu.Lock()
	if err := cc.err; err != nil {
		cc.mu.Unlock()
		cc.free <- s
		return Response{}, err
	}
	s.gen++
	s.waiting, s.due, s.op = true, due, req.Op
	cc.mu.Unlock()
	req.ID = uint64(s.gen)<<32 | uint64(s.idx)
	if err := cc.w.put(func(dst []byte) ([]byte, error) { return AppendRequest(dst, req) }, nil, 0); err != nil {
		cc.unsent(s)
		return Response{}, err
	}
	<-s.wake
	resp, err := s.resp, s.err
	cc.free <- s
	if err != nil {
		return Response{}, err
	}
	cc.m.observe(req.Op, start, resp.Code)
	return resp, nil
}

// tryAcquire takes an idle slot, or makes one while the table is below
// the window; it returns nil when the window is full.
func (cc *clientConn) tryAcquire() *slot {
	select {
	case s := <-cc.free:
		return s
	default:
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if len(cc.slots) < cap(cc.free) {
		s := &slot{idx: uint32(len(cc.slots)), wake: make(chan struct{}, 1)}
		cc.slots = append(cc.slots, s)
		return s
	}
	return nil
}

// acquire takes a slot as tryAcquire does, and otherwise waits for a
// release. Waiting is rare, so this wait, unlike the response's, arms a
// timer of its own.
func (cc *clientConn) acquire() (*slot, error) {
	if s := cc.tryAcquire(); s != nil {
		return s, nil
	}
	var timeoutCh <-chan time.Time
	if cc.timeout > 0 {
		t := timers.Get().(*time.Timer)
		t.Reset(cc.timeout)
		defer func() { t.Stop(); timers.Put(t) }()
		timeoutCh = t.C
	}
	select {
	case s := <-cc.free:
		return s, nil
	case <-cc.closed:
		return nil, cc.err
	case <-timeoutCh:
		return nil, fmt.Errorf("%w: no window slot within %v", ErrTimeout, cc.timeout)
	}
}

// unsent ends s's call whose request never left, and frees the slot. If
// the sweeper or close ended the call first, it takes their wake-up, and
// takes back the late response the sweeper counted on.
func (cc *clientConn) unsent(s *slot) {
	cc.mu.Lock()
	parked := s.waiting
	s.waiting = false
	if !parked && errors.Is(s.err, ErrTimeout) {
		s.late--
	}
	cc.mu.Unlock()
	if !parked {
		<-s.wake
	}
	cc.free <- s
}

// sweep enforces the call timeout, every timeout/8 until the connection
// closes: it fails each parked call whose due has passed with ErrTimeout,
// and fails the connection when a socket write has been in progress for
// longer than the timeout — a partly written frame cannot be taken back.
func (cc *clientConn) sweep() {
	t := time.NewTicker(max(cc.timeout/8, time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-cc.closed:
			return
		case <-t.C:
		}
		now := time.Since(epoch)
		if began := cc.w.writeStart.Load(); began != 0 && now-time.Duration(began) > cc.timeout {
			cc.close(fmt.Errorf("socket write stalled past the %v call timeout", cc.timeout))
			return
		}
		cc.mu.Lock()
		for _, s := range cc.slots {
			if s.waiting && s.due <= now {
				s.end(fmt.Errorf("%w: no %s response within %v", ErrTimeout, s.op, cc.timeout))
				s.late++
			}
		}
		cc.mu.Unlock()
	}
}

// readLoop decodes responses and wakes the caller parked on each one's
// slot. The response to a timed-out call is dropped; any other response
// nobody waits for is a protocol violation and kills the connection.
func (cc *clientConn) readLoop() {
	fr := newFrameReader(cc.w.nc)
	for {
		resp, err := fr.readResponse()
		if err != nil {
			cc.m.frameError(err)
			cc.close(err)
			return
		}
		var s *slot
		cc.mu.Lock()
		if idx := uint32(resp.ID); int(idx) < len(cc.slots) {
			s = cc.slots[idx]
		}
		switch {
		case s != nil && s.waiting && s.gen == uint32(resp.ID>>32):
			s.resp = resp
			s.end(nil)
			cc.mu.Unlock()
		case s != nil && s.late > 0:
			s.late--
			cc.mu.Unlock()
		default:
			cc.mu.Unlock()
			cc.close(fmt.Errorf("%w: response for unknown request id %#x", ErrFrame, resp.ID))
			return
		}
	}
}
