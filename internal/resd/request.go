package resd

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/tenant"
)

// Request is one admission request: the single argument of Admit, and
// the canonical unit the WAL serializes — an admit log record is this
// struct plus the assigned ID and start, nothing else.
type Request struct {
	// Tenant is the accounting identity the admission is charged to
	// ("" = the default tenant).
	Tenant string
	// Ready is the earliest admissible start time.
	Ready core.Time
	// Q is the requested width (processors).
	Q int
	// Dur is the reservation length.
	Dur core.Time
	// Deadline is the latest admissible start. It is literal — the zero
	// value is a deadline of tick 0, which rejects anything that cannot
	// start immediately. Set NoDeadline (the usual choice) to disable
	// the check.
	Deadline core.Time
	// ClientSend, when nonzero, is the caller's own send instant in unix
	// nanoseconds (a Reserve frame carries it across the wire). If the
	// admission is sampled, its TraceRecord gains the client-send→
	// server-arrival span. Transient: not part of the WAL record.
	ClientSend int64
	// Trace forces this admission into the trace ring regardless of the
	// sampling rate (a no-op when tracing is disabled). Transient: not
	// part of the WAL record.
	Trace bool
}

// Admit admits a reservation of req.Q processors for req.Dur ticks at
// the earliest admissible start >= req.Ready on the least-loaded shard
// that admits it, subject to the α head-room rule, req.Deadline, and
// req.Tenant's quota (when Config.Quotas is set). It returns once the
// routed shard has committed — and, with a WAL, durably logged — the
// batch containing the request.
//
// When every shard's earliest feasible start lies after the deadline
// the request fails with ErrDeadline and no capacity is consumed: a
// deadline rejection is an explicit accept/reject answer, not a silent
// push-back. A budget exhaustion fails with ErrQuota and, the
// budgets being global, is returned without trying further shards.
func (s *Service) Admit(req Request) (Reservation, error) {
	// Ready+Dur must not wrap past the end of time (an endless Dur never
	// ends, so it cannot): the index would find the window a start and
	// then refuse to book it.
	if req.Ready < 0 || req.Q < 1 || req.Dur < 1 || req.Deadline < 0 ||
		(req.Dur != core.Infinity && req.Dur > core.Infinity-req.Ready) {
		return Reservation{}, fmt.Errorf("%w: Admit(%q, ready=%v, q=%d, dur=%v, deadline=%v)",
			ErrBadRequest, req.Tenant, req.Ready, req.Q, req.Dur, req.Deadline)
	}
	if len(req.Tenant) > tenant.MaxNameLen {
		return Reservation{}, fmt.Errorf("%w: tenant name %d bytes long (max %d)",
			ErrBadRequest, len(req.Tenant), tenant.MaxNameLen)
	}
	ten := req.Tenant
	if ten == "" {
		ten = tenant.DefaultTenant
	}
	rec := s.tracer.maybe(ten, req.ClientSend, req.Trace)
	if req.Q+s.floor > s.cfg.M {
		s.tracer.finish(rec, TraceRejectedCapacity, 0)
		s.sloBook.reject(ten, false)
		return Reservation{}, &Refusal{Kind: ErrNeverFits, Shard: NoShard, Q: req.Q, Dur: req.Dur, Deadline: req.Deadline, Floor: s.floor, M: s.cfg.M}
	}
	// A deadline before the ready time is statically doomed (every start
	// is >= ready), but it still takes the shard path below: the shards
	// are where deadline rejections are counted, and a fast path here
	// would make ShardStats.RejectedDeadline undercount what callers see.
	//
	// A shard that rejects for the deadline or the α rule is not the last
	// word: another partition may be idle enough to start in time, so the
	// placement order is tried to the end. A deadline rejection is
	// remembered in preference to ErrNeverFits — it tells the caller the
	// request was feasible, just not soon enough. A quota rejection, by
	// contrast, ends the walk at once: the budget is service-wide, so no
	// other shard can answer differently.
	//
	// Whichever shard holds the request carries its area as in-flight load
	// for exactly as long as it holds it, so that callers routing meanwhile
	// count it (see shard.load).
	var firstErr error
	var orderBuf [stackShards]int
	walk := order(s.shards, orderBuf[:0])
	if rec != nil {
		rec.Route = time.Since(rec.Arrival)
	}
	area := int64(req.Dur) * int64(req.Q)
	for _, si := range walk {
		if rec != nil {
			rec.Shard = si
			rec.Enqueue = time.Since(rec.Arrival)
		}
		sh := s.shards[si]
		sh.inFlight.Add(area)
		resp, err := sh.do(request{kind: opReserve, tenant: ten, ready: req.Ready, q: req.Q, dur: req.Dur, deadline: req.Deadline, trace: rec})
		sh.inFlight.Add(-area)
		if err == nil {
			s.tracer.finish(rec, TraceAdmitted, resp.resv.Start)
			s.sloBook.admit(ten, req.Deadline != NoDeadline)
			return resp.resv, nil
		}
		if errors.Is(err, ErrQuota) {
			s.tracer.finish(rec, TraceRejectedQuota, 0)
			s.sloBook.reject(ten, false)
			return Reservation{}, err
		}
		if !errors.Is(err, ErrNeverFits) && !errors.Is(err, ErrDeadline) {
			s.tracer.finish(rec, TraceError, 0)
			// A shutdown is not an admission decision; anything else
			// (a backend fault) is an error the error-rate SLO counts.
			if !errors.Is(err, ErrClosed) {
				s.sloBook.reject(ten, false)
			}
			return Reservation{}, err
		}
		if firstErr == nil || (errors.Is(err, ErrDeadline) && !errors.Is(firstErr, ErrDeadline)) {
			firstErr = err
		}
	}
	s.tracer.finish(rec, classifyTraceErr(firstErr), 0)
	// The walk's verdict is the request-level decision the SLO book
	// counts: one rejection however many shards said no, a deadline
	// rejection when ErrDeadline won the preference above.
	s.sloBook.reject(ten, errors.Is(firstErr, ErrDeadline))
	return Reservation{}, firstErr
}
