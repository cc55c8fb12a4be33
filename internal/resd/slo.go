package resd

import (
	"sync/atomic"
	"time"

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

// attachSLO arms ObsConfig.SLO against the service: a book with a cell
// per tenant a deadline objective is scoped to, and the engine attached
// with readSLO's first reading. Called from New after the shards exist;
// it returns the sampler's judge, which reads the node and ticks the
// engine with the reading.
func (s *Service) attachSLO(e *slo.Engine) (judge, error) {
	book := &sloBook{tenants: make(map[string]*sloCell)}
	for _, o := range e.Objectives() {
		if o.Signal == slo.DeadlineAttainment && o.Tenant != "" && book.tenants[o.Tenant] == nil {
			book.tenants[o.Tenant] = new(sloCell)
		}
	}
	s.sloBook = book
	s.slo = e
	var smp slo.Sample
	s.readSLO(&smp)
	if err := e.Attach(time.Now(), &smp); err != nil {
		return judge{}, err
	}
	return judge{e.Period(), func(now time.Time) {
		s.readSLO(&smp)
		e.Tick(now, &smp)
	}}, nil
}

// readSLO fills smp with the engine's reading: the book's counts and the
// slack and turn-latency histograms summed across shards. Pure atomic
// loads, same contract as a scrape.
func (s *Service) readSLO(smp *slo.Sample) {
	b := s.sloBook
	smp.Admitted, smp.Rejected = b.admitted.Load(), b.rejected.Load()
	smp.DeadlineAdmitted, smp.DeadlineRejected = b.dlAdmitted.Load(), b.dlRejected.Load()
	if smp.TenantDeadline == nil {
		smp.TenantDeadline = make(map[string][2]uint64, len(b.tenants))
	}
	for ten, c := range b.tenants {
		smp.TenantDeadline[ten] = [2]uint64{c.dlAdmitted.Load(), c.dlRejected.Load()}
	}
	s.mergeHist(&smp.Slack, func(sh *shard) *obs.Histogram { return sh.slack })
	if smp.TurnsTimed = s.shards[0].turnNs != nil; smp.TurnsTimed {
		s.mergeHist(&smp.LoopTurn, func(sh *shard) *obs.Histogram { return sh.turnNs })
	}
}

// mergeHist sums one per-shard histogram's buckets across every shard
// into dst.
func (s *Service) mergeHist(dst *[stats.ExpBuckets]uint64, pick func(*shard) *obs.Histogram) {
	*dst = [stats.ExpBuckets]uint64{}
	var snap [stats.ExpBuckets]uint64
	for _, sh := range s.shards {
		pick(sh).Snapshot(&snap)
		for b := range dst {
			dst[b] += snap[b]
		}
	}
}
