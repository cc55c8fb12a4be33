package reswire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flight"
	"repro/internal/resd"
)

// ErrServerClosed is returned by Serve after Close, mirroring net/http.
var ErrServerClosed = errors.New("reswire: server closed")

// maxConnInFlight caps the number of requests one connection may have
// dispatched into a service with a log at once, and with it the handler
// goroutines the connection keeps. A pipelining client within the cap is never
// throttled; past it the reader stops pulling frames, which back-pressures
// through TCP instead of growing a goroutine per frame without bound.
const maxConnInFlight = 1024

// Watch subscription bounds: the server clamps a subscriber's interval
// into [MinWatchInterval, MaxWatchInterval] rather than refusing it, and
// caps how many live subscriptions one connection may hold.
const (
	MinWatchInterval = 10 * time.Millisecond
	MaxWatchInterval = time.Minute
	maxConnWatches   = 16
)

// Server fronts a resd.Service with the wire protocol: it decodes request
// frames, runs each against the service — on the connection's reader, or
// on a handler goroutine each when the service keeps a log, so that the
// shards group-commit them exactly as for in-process callers — and has
// whoever produced a response write it: responses to requests that
// arrived in one socket read leave in one write.
type Server struct {
	svc     *resd.Service
	metrics *Metrics
	journal *flight.Journal

	mu     sync.Mutex
	closed bool
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewServer wraps svc. The caller retains ownership of svc: Close shuts
// down the listeners and connections but not the service.
func NewServer(svc *resd.Service) *Server {
	return &Server{
		svc:   svc,
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
	}
}

// SetMetrics attaches wire instrumentation (side "server"). It must be
// called before Serve; connections accepted earlier are not instrumented.
// A nil Metrics leaves instrumentation off.
func (s *Server) SetMetrics(m *Metrics) { s.metrics = m }

// SetFlight routes the server's wire anomalies (protocol refusals, watch
// slow-consumer drops) into a flight-recorder
// journal. Like SetMetrics it must be called before Serve; a nil
// journal (the default) records nothing.
func (s *Server) SetFlight(j *flight.Journal) { s.journal = j }

// Serve accepts connections on ln until Close (then ErrServerClosed) or a
// listener failure. It may be called concurrently on several listeners.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()

	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func(c net.Conn) {
			defer s.wg.Done()
			s.serveConn(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}(c)
	}
}

// Close stops the listeners, closes every live connection and waits for
// the connection handlers to drain. The wrapped resd.Service is left
// running.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// job is a decoded request on its way to a handler, with the read batch
// its reply is corked against (nil: it arrived alone).
type job struct {
	req Request
	b   *batch
}

// serveConn runs one connection (doc.go, "Server"): the reader decodes
// frames and, when the service keeps no log, serves each itself, in
// order. With a log it hands each to a handler goroutine, which executes
// it and writes the reply itself, so that the requests of one read are in
// the shards' queues together and share a commit; handlers are kept for
// the life of the connection, at most maxConnInFlight of them. A protocol
// error (bad magic, oversized frame, …) closes the connection — framing
// is unrecoverable once desynchronised.
func (s *Server) serveConn(nc net.Conn) {
	defer nc.Close()
	wc := s.metrics.wrap(nc) // byte counters; nc stays the handle Close uses
	fr := newFrameReader(wc)
	w := newConnWriter(wc, false, func(error) { nc.Close() })

	var (
		hwg      sync.WaitGroup
		work     = make(chan job)
		spare    atomic.Int32          // idle handlers minus jobs on their way to one
		cur      = new(batch)          // the current read's batch, once it holds two requests
		out      chan Response         // watch pushes queue here; made by the first Watch
		pumped   = make(chan struct{}) // closed when out's pump has exited
		connDone = make(chan struct{}) // closed when the reader exits; ends this conn's watchers
	)
	handlers, inBatch, watches := 0, 0, 0
	fanOut := s.svc.WALInfo().Syncs
	serve := func(j job) {
		start := s.metrics.begin()
		resp := s.handle(j.req)
		s.metrics.observe(j.req.Op, start, resp.Code)
		s.metrics.end()
		w.reply(&resp, j.b)
	}
	handler := func(j job) {
		defer hwg.Done()
		for ok := true; ok; j, ok = <-work {
			serve(j)
			spare.Add(1)
		}
	}
	for {
		req, err := fr.readRequest()
		if err != nil {
			s.metrics.frameError(err)
			if errors.Is(err, ErrFrame) || errors.Is(err, ErrVersion) {
				// A protocol refusal, not a closing socket: the peer sent
				// something this server cannot parse (another revision's
				// frame included), and the connection is about to be
				// dropped as unrecoverable.
				s.journal.Record(flight.Warn, "reswire", -1, "frame error, closing connection",
					flight.KV{K: "remote", V: nc.RemoteAddr().String()},
					flight.KV{K: "err", V: err.Error()})
			}
			break
		}
		// The cork: requests one socket read delivered share a batch, sealed
		// as soon as the buffer holds no further whole frame (replies that
		// beat the seal drove owed negative; whoever brings it to zero
		// uncorks). A request that arrived alone flushes its own reply.
		more := fr.whole()
		j := job{req: req}
		if req.Op != OpWatch && (more || inBatch > 0) {
			j.b = cur
			inBatch++
		}
		if !more && inBatch > 0 {
			w.put(nil, cur, -inBatch)
			if fanOut { // handlers may still owe it replies; inline, it is settled before the next read
				cur = new(batch)
			}
			inBatch = 0
		}
		if req.Op == OpWatch {
			// A Watch is a subscription, not a round trip: its goroutine
			// pushes telemetry frames towards the connection's writer until
			// the connection closes. It reads only published atomics and
			// sends non-blockingly (drop-and-mark), so a stalled
			// subscriber never holds a shard, a handler, or the reader
			// hostage.
			start := s.metrics.begin()
			resp := Response{ID: req.ID, Op: OpWatch}
			if watches >= maxConnWatches {
				resp.Code = CodeBadRequest
				resp.Detail = fmt.Sprintf("reswire: %d watch subscriptions on one connection (max %d)", watches+1, maxConnWatches)
			}
			s.metrics.observe(req.Op, start, resp.Code)
			s.metrics.end()
			if resp.Code != CodeOK {
				w.reply(&resp, nil)
				continue
			}
			if out == nil {
				// One goroutine writes the pushes, so a subscriber that
				// stops reading blocks it alone; the 256 pushes that may
				// queue behind it are the slack before watchLoop drops.
				out = make(chan Response, 256)
				go func() {
					defer close(pumped)
					for resp := range out {
						w.reply(&resp, nil)
					}
				}()
			}
			watches++
			hwg.Add(1)
			go func(req Request) {
				defer hwg.Done()
				s.watchLoop(req, out, connDone)
			}(req)
			continue
		}
		// Unless the log fsyncs, a request waits for nothing but a shard
		// another caller is serving at this moment, which is over sooner
		// than a handoff to another goroutine and back: the reader serves
		// it, and a read's requests run back to back on one processor.
		if !fanOut {
			serve(j)
			continue
		}
		// To a handler that is, or is about to be, idle; else to a new one
		// below the cap; at the cap the send waits for the next to idle,
		// whose spare.Add repays the debt taken here.
		if spare.Add(-1) < 0 && handlers < maxConnInFlight {
			spare.Add(1)
			handlers++
			hwg.Add(1)
			go handler(j)
		} else {
			work <- j
		}
	}
	close(connDone)
	close(work)
	hwg.Wait()
	if out != nil {
		close(out)
		<-pumped
	}
}

// reply appends resp to the connection's output, corked against b. A
// response that cannot be encoded would leave the peer waiting for its id
// for ever, so it fails the connection.
func (w *connWriter) reply(resp *Response, b *batch) {
	if err := w.put(func(dst []byte) ([]byte, error) { return AppendResponse(dst, *resp) }, b, 1); err != nil {
		w.fail(err)
	}
}

// watchLoop is one Watch subscription: every interval it takes one
// Service.Node (published atomics only, the same rows a /metrics scrape
// reads) and offers it, whole, to the connection's writer. A full push
// queue (slow consumer, stuck socket) drops the frame and counts it in
// the next delivered frame's Dropped field — the subscription never
// blocks, and the shards never see it at all. The first frame is pushed immediately so a
// subscriber has a baseline before the first interval elapses.
func (s *Server) watchLoop(req Request, out chan<- Response, done <-chan struct{}) {
	interval := req.Interval
	if interval < MinWatchInterval {
		interval = MinWatchInterval
	}
	if interval > MaxWatchInterval {
		interval = MaxWatchInterval
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var seq, dropped uint64
	push := func() {
		t := &Telemetry{Seq: seq + 1, Dropped: dropped, NodeSnapshot: s.svc.Node()}
		select {
		case out <- Response{ID: req.ID, Op: OpWatch, Telemetry: t}:
			seq++
		default:
			if dropped == 0 {
				// First drop only: the subscriber's Dropped field carries
				// the running count; the journal wants the onset.
				s.journal.Record(flight.Warn, "reswire", -1, "watch subscriber slow, dropping frames",
					flight.KV{K: "watch_id", V: fmt.Sprint(req.ID)})
			}
			dropped++
		}
	}
	push()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			push()
		}
	}
}

// handle executes one decoded request against the service and builds the
// response, mapping typed service errors onto wire codes.
func (s *Server) handle(req Request) Response {
	resp := Response{ID: req.ID, Op: req.Op}
	fail := func(err error) Response {
		resp.Code = CodeOf(err)
		resp.Detail = err.Error()
		return resp
	}
	switch req.Op {
	case OpReserve:
		resv, err := s.svc.Admit(resd.Request{Tenant: req.Tenant, Ready: req.Ready, Q: req.Procs, Dur: req.Dur, Deadline: req.Deadline,
			ClientSend: req.Stamp, Trace: req.Traced})
		if err != nil {
			return fail(err)
		}
		resp.Resv = resv
	case OpCancel:
		if err := s.svc.Cancel(resd.ID(req.Resv)); err != nil {
			return fail(err)
		}
	case OpQuery:
		free, err := s.svc.Query(req.Ready)
		if err != nil {
			return fail(err)
		}
		resp.Free = free
	case OpSnapshot:
		snap, err := s.svc.Snapshot(req.Shard)
		if err != nil {
			return fail(err)
		}
		resp.M = snap.M()
		bps := snap.Breakpoints()
		resp.Segs = make([]Segment, len(bps))
		for i, bp := range bps {
			resp.Segs[i] = Segment{Start: bp, Free: snap.AvailableAt(bp)}
		}
	case OpPing:
		// liveness only: echo the header
	case OpStats:
		resp.Stats = s.svc.Stats()
	case OpQuotaGet:
		reg := s.svc.Quotas()
		if reg == nil {
			return fail(fmt.Errorf("%w: quotas disabled on this server", resd.ErrBadRequest))
		}
		resp.Quota = QuotaInfo{Usage: reg.Usage(req.Tenant), Capacity: reg.Capacity()}
	case OpQuotaSet:
		reg := s.svc.Quotas()
		if reg == nil {
			return fail(fmt.Errorf("%w: quotas disabled on this server", resd.ErrBadRequest))
		}
		if err := reg.SetShare(req.Tenant, req.Share); err != nil {
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("%w: op %d", resd.ErrBadRequest, uint8(req.Op)))
	}
	return resp
}
