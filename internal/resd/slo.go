package resd

import (
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/slo"
	"repro/internal/stats"
)

// sloCell is one tenant's deadline-attainment counters: admissions that
// carried a deadline and made it, and requests the deadline rejected.
type sloCell struct {
	dlAdmitted atomic.Uint64
	dlRejected atomic.Uint64
}

// sloBook counts request-level admission outcomes for the SLO engine.
// The per-shard counters cannot serve the deadline objectives: the
// Admit walk may collect a deadline rejection on several shards before
// one of them admits, so summing shard counters over-counts the
// denominator. The book counts each decision once, where it is made —
// in Admit, on the caller's goroutine, with plain atomic adds.
//
// tenants holds a cell per tenant named by a scoped objective. The map
// is built once at attach and never mutated afterwards, so every Admit
// goroutine reads it lock-free; unnamed tenants cost one failed lookup.
// All methods are nil-receiver-safe: a service without an SLO engine
// pays one predicted branch per admission decision.
type sloBook struct {
	admitted   atomic.Uint64
	rejected   atomic.Uint64
	dlAdmitted atomic.Uint64
	dlRejected atomic.Uint64
	tenants    map[string]*sloCell
}

// admit records one successful admission (hasDeadline: the request
// carried a finite deadline, making it a deadline-attainment sample).
func (b *sloBook) admit(ten string, hasDeadline bool) {
	if b == nil {
		return
	}
	b.admitted.Add(1)
	if !hasDeadline {
		return
	}
	b.dlAdmitted.Add(1)
	if c := b.tenants[ten]; c != nil {
		c.dlAdmitted.Add(1)
	}
}

// reject records one request-level rejection (deadline: the walk's
// verdict was ErrDeadline — a feasible request the service could not
// start in time, the broken promise deadline attainment counts).
func (b *sloBook) reject(ten string, deadline bool) {
	if b == nil {
		return
	}
	b.rejected.Add(1)
	if !deadline {
		return
	}
	b.dlRejected.Add(1)
	if c := b.tenants[ten]; c != nil {
		c.dlRejected.Add(1)
	}
}

// tenantAttainment reads one tracked tenant's cumulative deadline
// counters (ok=false when no objective scopes to the tenant).
func (b *sloBook) tenantAttainment(ten string) (good, total uint64, ok bool) {
	if b == nil {
		return 0, 0, false
	}
	c := b.tenants[ten]
	if c == nil {
		return 0, 0, false
	}
	good = c.dlAdmitted.Load()
	return good, good + c.dlRejected.Load(), true
}

// attachSLO arms ObsConfig.SLO against the service: a CounterSource per
// objective, the slack and turn-latency histograms routed through the
// engine's snapshot ring, then Start. Called from New after the shards
// exist; Close stops the engine.
func (s *Service) attachSLO(e *slo.Engine) error {
	book := &sloBook{tenants: make(map[string]*sloCell)}
	for _, o := range e.Objectives() {
		var src slo.CounterSource
		switch o.Signal {
		case slo.DeadlineAttainment:
			if o.Tenant == "" {
				src = func() (uint64, uint64) {
					good := book.dlAdmitted.Load()
					return good, good + book.dlRejected.Load()
				}
			} else {
				cell := book.tenants[o.Tenant]
				if cell == nil {
					cell = new(sloCell)
					book.tenants[o.Tenant] = cell
				}
				src = func() (uint64, uint64) {
					good := cell.dlAdmitted.Load()
					return good, good + cell.dlRejected.Load()
				}
			}
		case slo.ErrorRate:
			src = func() (uint64, uint64) {
				good := book.admitted.Load()
				return good, good + book.rejected.Load()
			}
		case slo.Slack:
			bound := o.Bound
			slackSrc := s.mergedHist(func(sh *shard) *obs.Histogram { return sh.slack })
			src = func() (uint64, uint64) {
				var merged [stats.ExpBuckets]uint64
				total := slackSrc(&merged)
				return slo.GoodUnderBound(&merged, bound), total
			}
		default:
			return fmt.Errorf("%w: objective %q has unsupported signal %q", ErrBadRequest, o.Name, o.Signal)
		}
		if err := e.Bind(o.Name, src); err != nil {
			return err
		}
	}
	// Windowed percentiles for the cumulative summaries: the engine's
	// ring answers "slack over the last budget window", which the
	// process-lifetime families cannot.
	if err := e.TrackHistogram("resd_slack_ticks",
		s.mergedHist(func(sh *shard) *obs.Histogram { return sh.slack })); err != nil {
		return err
	}
	if s.shards[0].turnNs != nil {
		if err := e.TrackHistogram("resd_loop_turn_ns",
			s.mergedHist(func(sh *shard) *obs.Histogram { return sh.turnNs })); err != nil {
			return err
		}
	}
	s.sloBook = book
	s.slo = e
	return e.Start()
}

// mergedHist sums one per-shard histogram's buckets across every shard:
// the service-wide cumulative snapshot the engine's ring deltas. Pure
// atomic loads, same contract as a scrape.
func (s *Service) mergedHist(pick func(*shard) *obs.Histogram) slo.HistSource {
	return func(dst *[stats.ExpBuckets]uint64) uint64 {
		var total uint64
		*dst = [stats.ExpBuckets]uint64{}
		for _, sh := range s.shards {
			var snap [stats.ExpBuckets]uint64
			total += pick(sh).Snapshot(&snap)
			for b := range dst {
				dst[b] += snap[b]
			}
		}
		return total
	}
}

// SLO returns the armed engine, or nil when the service runs without
// one — what resdsrv hands to the wire server and /healthz.
func (s *Service) SLO() *slo.Engine { return s.slo }
