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
// the earliest admissible start >= req.Ready on a shard that admits it,
// the least loaded first among those not busy (see Placement in the
// package doc), subject to the α head-room rule, req.Deadline, and
// req.Tenant's quota (when Config.Quotas is set). It returns once the
// routed shard has committed — and, with a WAL, durably logged — the
// batch containing the request.
//
// The rules run in a fixed order: the static ErrNeverFits check (Q plus
// the α floor exceeds M); the quota at the door, which reads the tenant's
// account without charging it and refuses with ErrQuota before any shard
// is asked, booking the refusal on the shard placement ranked first; α
// and the deadline at each shard placement tries; and last the quota
// charge on the shard that found a start. The charge is the authority: a
// request that passed the door can still lose the budget to a concurrent
// one, and that ErrQuota ends the walk too, the budget being
// service-wide. So an over-budget request that would also miss its
// deadline gets ErrQuota, and a doomed request never burns budget.
//
// When every shard's earliest feasible start lies after the deadline
// the request fails with ErrDeadline and no capacity is consumed: a
// deadline rejection is an explicit accept/reject answer, not a silent
// push-back.
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
	// request was feasible, just not soon enough.
	//
	// The walk serves on the first shard in rank order whose lock is free
	// (see Placement in the package doc); a deadline or α refusal drops
	// its shard and the walk runs again over the rest.
	var firstErr error
	var orderBuf [stackShards]int
	walk := order(s.shards, orderBuf[:0])
	if rec != nil {
		rec.Route = time.Since(rec.Arrival)
	}
	area := tenant.Area(req.Q, int64(req.Dur))
	var acct *tenant.Account
	if s.cfg.Quotas != nil {
		acct = s.cfg.Quotas.Account(ten)
		var why tenant.QuotaError
		if !acct.Check(area, &why) {
			s.shards[walk[0]].rejectedQuota.Add(1)
			if rec != nil {
				rec.Shard = walk[0]
			}
			s.tracer.finish(rec, TraceRejectedQuota, 0)
			s.sloBook.reject(ten, false)
			return Reservation{}, &Refusal{Kind: ErrQuota, Shard: walk[0], Q: req.Q, Dur: req.Dur, Deadline: req.Deadline, Floor: s.floor, Quota: why}
		}
	}
	r := request{kind: opReserve, tenant: ten, acct: acct, area: area, ready: req.Ready, q: req.Q, dur: req.Dur, deadline: req.Deadline, trace: rec}
	for len(walk) > 0 {
		// One pass of TryLocks down the rank, then a wait for the first;
		// the last shard left is waited for at once.
		k, resp, err := 0, response{}, errBusy
		for i := 0; err == errBusy; i++ {
			k = i % len(walk)
			if rec != nil {
				rec.Enqueue = time.Since(rec.Arrival)
			}
			resp, err = s.shards[walk[k]].do(r, i == len(walk) || len(walk) == 1)
		}
		if rec != nil {
			rec.Shard = walk[k]
		}
		walk = append(walk[:k], walk[k+1:]...)
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
