package reswire

import (
	"errors"
	"net"
	"time"

	"repro/internal/obs"
)

// Metrics instruments one side of the wire — pass one built with side
// "server" to Server.SetMetrics; this package's tests give a client one
// with side "client" (the side label keeps their series apart). Families:
//
//	reswire_op_ns{side,op,quantile}     summary  per-op round-trip latency
//	reswire_inflight{side}              gauge    requests currently in flight
//	reswire_bytes_total{side,dir}       counter  dir ∈ rx|tx, raw socket bytes
//	reswire_writes_total{side}          counter  socket writes (frames and bytes per write follow)
//	reswire_frame_errors_total{side}    counter  malformed/unsupported frames
//	reswire_responses_total{side,code}  counter  responses by wire code
//
// The latency summaries measure what each side can see: the server times
// decode-to-response (service time, including the shard's group
// commit), the client times send-to-receive (service time plus the wire).
// All methods are safe on a nil *Metrics, which disables instrumentation.
type Metrics struct {
	opNS     [OpWatch + 1]*obs.Histogram
	inflight *obs.Gauge
	rx, tx   *obs.Counter
	writes   *obs.Counter
	frame    *obs.Counter
	codes    [CodeRejectedQuota + 1]*obs.Counter
}

// NewMetrics registers the wire families for one side ("server" or
// "client") against reg. A nil registry returns a nil Metrics — the
// no-op, matching how resd treats a nil ObsConfig.
func NewMetrics(reg *obs.Registry, side string) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{}
	s := obs.L("side", side)
	for op := OpReserve; op <= OpWatch; op++ {
		m.opNS[op] = reg.NewHistogram("reswire_op_ns",
			"Wire op latency in nanoseconds, as observed by this side.",
			s, obs.L("op", op.String()))
	}
	m.inflight = reg.NewGauge("reswire_inflight",
		"Requests currently in flight on this side.", s)
	m.rx = reg.NewCounter("reswire_bytes_total",
		"Raw socket bytes moved, by direction.", s, obs.L("dir", "rx"))
	m.tx = reg.NewCounter("reswire_bytes_total",
		"Raw socket bytes moved, by direction.", s, obs.L("dir", "tx"))
	m.writes = reg.NewCounter("reswire_writes_total",
		"Socket writes made; every frame this side sends leaves in one of them.", s)
	m.frame = reg.NewCounter("reswire_frame_errors_total",
		"Frames refused as malformed or from an unsupported revision.", s)
	for c := CodeOK; c <= CodeRejectedQuota; c++ {
		m.codes[c] = reg.NewCounter("reswire_responses_total",
			"Responses seen by this side, by wire code.",
			s, obs.L("code", c.String()))
	}
	return m
}

// begin marks one request entering flight and returns its start instant
// (zero when metrics are disabled, so callers never pay time.Now for
// nothing).
func (m *Metrics) begin() time.Time {
	if m == nil {
		return time.Time{}
	}
	m.inflight.Add(1)
	return time.Now()
}

// end marks the request begun at begin leaving flight.
func (m *Metrics) end() {
	if m != nil {
		m.inflight.Add(-1)
	}
}

// observe records one finished op: its latency since start and the
// response code it resolved to.
func (m *Metrics) observe(op Op, start time.Time, code Code) {
	if m == nil {
		return
	}
	if op >= OpReserve && int(op) < len(m.opNS) {
		m.opNS[op].Observe(time.Since(start).Nanoseconds())
	}
	if int(code) < len(m.codes) {
		m.codes[code].Inc()
	}
}

// frameError counts err when it is a protocol refusal (ErrFrame or
// ErrVersion); read failures from a closing socket are not the peer's
// fault and are not counted.
func (m *Metrics) frameError(err error) {
	if m == nil || err == nil {
		return
	}
	if errors.Is(err, ErrFrame) || errors.Is(err, ErrVersion) {
		m.frame.Inc()
	}
}

// wrap interposes the byte counters on a connection; the no-op returns
// the connection untouched.
func (m *Metrics) wrap(nc net.Conn) net.Conn {
	if m == nil {
		return nc
	}
	return &countingConn{Conn: nc, m: m}
}

// countingConn counts raw socket bytes, and the writes that carry them,
// into its Metrics. Only Read and Write are interposed; everything else
// delegates to the embedded Conn.
type countingConn struct {
	net.Conn
	m *Metrics
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.m.rx.Add(uint64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.m.writes.Inc() // before the write: a peer that has read the bytes finds it counted
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.m.tx.Add(uint64(n))
	}
	return n, err
}
