package resd

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
)

// TraceOutcome classifies how a traced admission attempt ended.
type TraceOutcome uint8

const (
	// TraceAdmitted: a shard committed the reservation.
	TraceAdmitted TraceOutcome = iota
	// TraceRejectedCapacity: every tried shard rejected under the α rule.
	TraceRejectedCapacity
	// TraceRejectedDeadline: feasible, but no shard could start in time.
	TraceRejectedDeadline
	// TraceRejectedQuota: the tenant's budget was exhausted.
	TraceRejectedQuota
	// TraceError: the request failed some other way (bad request, closed).
	TraceError
)

// String renders the outcome for logs and tables.
func (o TraceOutcome) String() string {
	switch o {
	case TraceAdmitted:
		return "admitted"
	case TraceRejectedCapacity:
		return "rejected-capacity"
	case TraceRejectedDeadline:
		return "rejected-deadline"
	case TraceRejectedQuota:
		return "rejected-quota"
	case TraceError:
		return "error"
	}
	return "unknown"
}

// TraceRecord is one sampled admission's timing breakdown: where inside
// the service a request spent its latency. All stage fields are offsets
// from Arrival, each stamped when the request crosses that stage:
//
//	Arrival     Admit entered (wall clock; offsets are monotonic)
//	Route       placement order computed, first shard attempt starting
//	Enqueue     the attempt on the shard that answered began
//	BatchStart  the turn serving it on that shard began applying it
//	Decision    final answer in hand (after every placement attempt)
//
// Decision − BatchStart is its turn; BatchStart − Enqueue is the wait
// for the shard (its lock, or a combiner) and the turn's earlier
// requests; Enqueue − Route is the walk before that attempt: a failed
// TryLock per held shard it passed over (no handoff) and the turns of
// shards that refused it. Shard is the shard that produced the final
// answer, or for a quota refusal at the door the shard it was booked on
// (−1 if none: Q plus the floor exceeds M), and Start is the admitted
// start time when Outcome is TraceAdmitted.
//
// ClientSend is the cross-wire span: how long before Arrival the caller
// stamped the request on its side of the wire (Request.ClientSend,
// carried by Reserve frames). Zero for in-process callers that set
// none; the two clocks are the caller's and the server's, so
// skew can make the span inexact (even negative) — it is an
// observability figure, not a synchronized timestamp.
type TraceRecord struct {
	Seq                                  uint64
	Tenant                               string
	Shard                                int
	Outcome                              TraceOutcome
	Start                                core.Time
	Arrival                              time.Time
	ClientSend                           time.Duration
	Route, Enqueue, BatchStart, Decision time.Duration
}

// tracer samples admissions into a bounded ring. Sampling is one atomic
// add on the hot path; only sampled requests (1 in sample) allocate a
// record and take the ring mutex, so the cost scales with the sample
// rate, not the request rate.
type tracer struct {
	sample   uint64
	slow     time.Duration
	slowLog  func(TraceRecord)
	slowQ    *flight.Queue // dispatches slowLog off the admission path; nil iff slowLog is
	n        atomic.Uint64
	seq      atomic.Uint64
	sampled  atomic.Uint64
	slowSeen atomic.Uint64

	mu   sync.Mutex
	ring []TraceRecord
	next int
	full bool
}

// TraceRingLen is the trace ring's capacity: the newest records kept.
const TraceRingLen = 256

// slowLogQueueDepth bounds how many slow records can wait for the
// SlowLog callback before further ones are dropped (counted in
// resd_slow_log_dropped_total).
const slowLogQueueDepth = 256

func newTracer(cfg *ObsConfig) *tracer {
	if cfg == nil || cfg.TraceSample <= 0 {
		return nil
	}
	t := &tracer{
		sample:  uint64(cfg.TraceSample),
		slow:    cfg.SlowThreshold,
		slowLog: cfg.SlowLog,
		ring:    make([]TraceRecord, TraceRingLen),
	}
	if t.slowLog != nil {
		t.slowQ = flight.NewQueue(slowLogQueueDepth)
	}
	return t
}

// close stops the slow-log dispatcher. Queued callbacks may still run
// after close returns; a callback wedged mid-run is abandoned rather
// than waited for (ObsConfig.SlowLog's contract).
func (t *tracer) close() {
	if t != nil {
		t.slowQ.Close()
	}
}

// maybe decides whether this request is sampled; nil means no. force
// bypasses the 1-in-N rate (a caller-requested trace, Request.Trace);
// clientSend, when nonzero, is the caller's send stamp in unix
// nanoseconds and becomes the record's ClientSend span. Safe on a nil
// tracer (tracing disabled — force included).
func (t *tracer) maybe(tenant string, clientSend int64, force bool) *TraceRecord {
	if t == nil {
		return nil
	}
	if c := t.n.Add(1); !force && t.sample > 1 && (c-1)%t.sample != 0 {
		return nil
	}
	t.sampled.Add(1)
	rec := &TraceRecord{
		Seq:     t.seq.Add(1),
		Tenant:  tenant,
		Shard:   -1,
		Arrival: time.Now(),
	}
	if clientSend != 0 {
		rec.ClientSend = rec.Arrival.Sub(time.Unix(0, clientSend))
	}
	return rec
}

// finish stamps the decision, classifies the outcome, publishes the
// record to the ring and feeds the slow-request log.
func (t *tracer) finish(rec *TraceRecord, outcome TraceOutcome, start core.Time) {
	if t == nil || rec == nil {
		return
	}
	rec.Decision = time.Since(rec.Arrival)
	rec.Outcome = outcome
	rec.Start = start
	t.mu.Lock()
	t.ring[t.next] = *rec
	t.next++
	if t.next == len(t.ring) {
		t.next, t.full = 0, true
	}
	t.mu.Unlock()
	if t.slow > 0 && rec.Decision >= t.slow {
		t.slowSeen.Add(1)
		if t.slowLog != nil {
			// Asynchronous by contract: the callback runs on the queue's
			// dispatcher goroutine, never on the admission path, and is
			// dropped (counted) rather than waited for when the queue is
			// full — a wedged callback costs records, not throughput.
			cp := *rec
			t.slowQ.Dispatch(func() { t.slowLog(cp) })
		}
	}
}

// snapshot copies up to max records, oldest first. max <= 0 means all.
func (t *tracer) snapshot(max int) []TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if t.full {
		n = len(t.ring)
	}
	out := make([]TraceRecord, 0, n)
	if t.full {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// Traces returns the most recent sampled admission traces, oldest first,
// up to max (max <= 0 returns the whole ring). Empty when tracing is
// disabled. This is what /debug/flight and flight bundles serve.
func (s *Service) Traces(max int) []TraceRecord {
	return s.tracer.snapshot(max)
}

// classifyTraceErr maps an Admit error to a trace outcome.
func classifyTraceErr(err error) TraceOutcome {
	switch {
	case err == nil:
		return TraceAdmitted
	case errors.Is(err, ErrQuota):
		return TraceRejectedQuota
	case errors.Is(err, ErrDeadline):
		return TraceRejectedDeadline
	case errors.Is(err, ErrNeverFits):
		return TraceRejectedCapacity
	}
	return TraceError
}
