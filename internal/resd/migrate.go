package resd

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/rebal"
)

// RebalanceReport summarises one rebalancing round.
type RebalanceReport struct {
	// Planned is how many moves the planner proposed.
	Planned int
	// Applied counts moves that committed: the reservation now lives on
	// its target shard, books and Cancel routing transferred.
	Applied int
	// Aborted counts moves rolled back because the reservation was
	// cancelled between planning and execution (the two-phase conflict
	// path — expected under live traffic, never an error).
	Aborted int
	// Skipped counts moves the target shard refused (no α-legal room at
	// the reservation's start by execution time).
	Skipped int
	// Before and After are the imbalance scores (rebal.Imbalance over
	// per-shard committed area) observed before planning and after
	// execution.
	Before, After float64
}

// Rebalance runs one planning-and-migration round at the given logical
// time: it scores the shards' committed-area spread from the lock-free
// load summaries, and — when the spread exceeds Config.RebalanceThreshold
// — plans moves of admitted future reservations (internal/rebal) and
// executes each through a two-phase commit across the shard queues:
//
//  1. tentative commit on the target (capacity held, copy invisible),
//  2. forward Cancel routing to the target,
//  3. release on the source — or, if the reservation was cancelled in
//     the meantime, roll the tentative copy back,
//  4. finalise on the target (books transferred).
//
// Capacity is conserved at every instant: between steps 1 and 3 the
// reservation's area is briefly held on both shards (the conservative
// overlap of any two-phase move — the promise to the client is never
// uncovered and no shard ever oversubscribes), and tenant quota is
// neither charged nor released — the original admission's charge rides
// along, so the registry ledger is untouched and nothing is ever
// double-counted. Reservations starting before now+Config.RebalanceFreeze
// are never moved.
//
// Rebalance runs a single round, capped at Config.RebalanceMaxMoves, so
// the shards are never stalled by one enormous transfer; a heavily
// skewed service may need several rounds to settle. It is what the
// background balancer (Config.RebalanceEvery) drives each tick (to
// completion, via RebalanceAll); it may also be driven manually, and is
// safe to call concurrently with traffic, though rounds themselves should
// not race each other (the background balancer never overlaps its own
// rounds).
func (s *Service) Rebalance(now core.Time) (RebalanceReport, error) {
	return s.rebalanceRound(now, s.cfg.RebalanceThreshold)
}

// RebalanceAll runs Rebalance rounds until the imbalance reaches the
// hysteresis target (half the trigger threshold) or a round stops making
// progress — the "drain the hot shard now" entry point for operators and
// for the background balancer once a tick has triggered. Between rounds
// the shards serve ordinary traffic, so a large drain is spread into
// RebalanceMaxMoves-sized slices rather than one long stall. The returned
// report accumulates every round.
func (s *Service) RebalanceAll(now core.Time) (RebalanceReport, error) {
	total, err := s.Rebalance(now)
	if err != nil || total.Applied == 0 {
		return total, err
	}
	target := s.cfg.RebalanceThreshold / 2
	for {
		rep, err := s.rebalanceRound(now, target)
		total.Planned += rep.Planned
		total.Applied += rep.Applied
		total.Aborted += rep.Aborted
		total.Skipped += rep.Skipped
		total.After = rep.After
		if err != nil || rep.Applied == 0 {
			return total, err
		}
	}
}

// rebalanceRound is one gated planning-and-migration round: a no-op
// unless the current imbalance exceeds trigger, and then a plan aiming
// for half the configured threshold (the hysteresis target), capped at
// RebalanceMaxMoves.
func (s *Service) rebalanceRound(now core.Time, trigger float64) (RebalanceReport, error) {
	var rep RebalanceReport
	if now < 0 {
		return rep, fmt.Errorf("%w: Rebalance(now=%v)", ErrBadRequest, now)
	}
	s.balMu.Lock()
	defer s.balMu.Unlock()
	// Publish the round's telemetry for obs scrapes whichever way it
	// exits (no-op, error mid-plan, or a full execute).
	defer func() {
		s.balRounds.Add(1)
		s.balApplied.Add(uint64(rep.Applied))
		s.balAborted.Add(uint64(rep.Aborted))
		s.balSkipped.Add(uint64(rep.Skipped))
		s.balBefore.Store(math.Float64bits(rep.Before))
		s.balAfter.Store(math.Float64bits(rep.After))
		if rep.Planned > 0 {
			s.journal.Record(flight.Info, "rebal", -1, "rebalance round",
				flight.KV{K: "planned", V: fmt.Sprint(rep.Planned)},
				flight.KV{K: "applied", V: fmt.Sprint(rep.Applied)},
				flight.KV{K: "aborted", V: fmt.Sprint(rep.Aborted)},
				flight.KV{K: "skipped", V: fmt.Sprint(rep.Skipped)},
				flight.KV{K: "before", V: fmt.Sprintf("%.3f", rep.Before)},
				flight.KV{K: "after", V: fmt.Sprintf("%.3f", rep.After)})
		}
	}()
	areas := make([]int64, len(s.shards))
	readAreas := func() {
		for i, sh := range s.shards {
			areas[i] = sh.committedArea.Load()
		}
	}
	readAreas()
	rep.Before = rebal.Imbalance(areas)
	rep.After = rep.Before
	if len(s.shards) < 2 || rep.Before <= trigger {
		// The cheap pre-check: a balanced service pays two atomic loads
		// per shard per tick, never a request to a shard.
		return rep, nil
	}

	cutoff := now + s.cfg.RebalanceFreeze
	if s.cfg.RebalanceFreeze > core.Infinity-now {
		cutoff = core.Infinity
	}
	loads := make([]rebal.ShardLoad, len(s.shards))
	for i, sh := range s.shards {
		resp, err := sh.do(request{kind: opMigratable, ready: cutoff})
		if err != nil {
			return rep, err
		}
		loads[i] = rebal.ShardLoad{
			Shard:         i,
			CommittedArea: sh.committedArea.Load(),
			Resvs:         resp.cands,
		}
	}
	var pressure map[string]float64
	if s.cfg.Quotas != nil {
		pressure = make(map[string]float64)
		for _, ld := range loads {
			for _, rv := range ld.Resvs {
				if _, ok := pressure[rv.Tenant]; !ok {
					pressure[rv.Tenant] = s.cfg.Quotas.Ratio(rv.Tenant)
				}
			}
		}
	}
	// Hysteresis: a triggered round plans down to half the trigger score,
	// not just under it. Stopping exactly at the threshold would leave the
	// system one transient admission away from re-triggering, and a
	// balancer that oscillates around its own trigger pays the candidate
	// snapshots (and pointless migrations of short-lived work) forever.
	plan := rebal.MakePlan(now, loads, rebal.Config{
		Threshold: s.cfg.RebalanceThreshold / 2,
		Freeze:    s.cfg.RebalanceFreeze,
		MaxMoves:  s.cfg.RebalanceMaxMoves,
		Pressure:  pressure,
	})
	rep.Planned = len(plan.Moves)
	for _, mv := range plan.Moves {
		applied, aborted, err := s.executeMove(mv)
		switch {
		case err != nil:
			return rep, err
		case applied:
			rep.Applied++
		case aborted:
			rep.Aborted++
		default:
			rep.Skipped++
		}
	}
	readAreas()
	rep.After = rebal.Imbalance(areas)
	return rep, nil
}

// executeMove runs one move's two-phase commit. It returns
// (applied, aborted, err): at most one of the booleans is set, and both
// false with a nil error means the target refused (skipped). A non-nil
// error only means the service is closing mid-move.
func (s *Service) executeMove(mv rebal.Move) (applied, aborted bool, err error) {
	id := ID(mv.Resv.ID)
	src, tgt := s.shards[mv.From], s.shards[mv.To]
	in := request{
		kind: opMigrateIn, id: id, tenant: mv.Resv.Tenant,
		ready: mv.Resv.Start, dur: mv.Resv.Dur, q: mv.Resv.Procs,
		peer: mv.From,
	}
	if _, err := tgt.do(in); err != nil {
		if errors.Is(err, ErrClosed) {
			return false, false, err
		}
		return false, false, nil // no α-legal room at the target any more: skip
	}
	// Forward Cancel routing before touching the source: from here on a
	// Cancel either still finds the source copy (and the source release
	// below reports the conflict) or reaches the target, where the pending
	// copy makes it wait out the move. There is no instant at which a
	// legitimate Cancel can miss the reservation.
	s.moved.Store(id, mv.To)
	if _, err := src.do(request{kind: opMigrateOut, id: id, peer: mv.To}); err != nil {
		if !errors.Is(err, ErrUnknownID) {
			return false, false, err // closing; the books stay conservative
		}
		// Cancelled between planning and execution: roll back the
		// tentative copy and restore routing.
		if _, aerr := tgt.do(request{kind: opMigrateAbort, id: id}); aerr != nil {
			return false, false, aerr
		}
		s.moved.Delete(id)
		s.journal.Record(flight.Info, "rebal", mv.From, "migration aborted: reservation cancelled mid-move",
			flight.KV{K: "id", V: fmt.Sprintf("%#x", uint64(id))},
			flight.KV{K: "to", V: fmt.Sprint(mv.To)})
		return false, true, nil
	}
	if _, err := tgt.do(request{kind: opMigrateCommit, id: id}); err != nil {
		return false, false, err
	}
	// The commit is durable on the target: close the source's WAL
	// open-out. The move is applied whatever happens here — a lost ack
	// (service closing) just leaves a stale open-out the next recovery
	// closes itself.
	src.do(request{kind: opMigrateOutAck, id: id})
	s.journal.Record(flight.Info, "rebal", mv.From, "migration committed",
		flight.KV{K: "id", V: fmt.Sprintf("%#x", uint64(id))},
		flight.KV{K: "to", V: fmt.Sprint(mv.To)},
		flight.KV{K: "tenant", V: mv.Resv.Tenant})
	return true, false, nil
}

// balanceLoop is the background rebalancer: one Rebalance round every
// Config.RebalanceEvery, at the logical time Config.RebalanceNow reports
// (a zero clock when unset), until the service closes. Rounds never
// overlap — the next tick fires only after the previous round returns —
// and rounds that achieve nothing back off exponentially: when the score
// is above threshold but no candidate can improve it (everything frozen,
// or the residual spread is all in unmovable reservations), re-planning
// every tick would pay the candidate-snapshot cost inside every shard
// for zero benefit, so the loop skips up to 64 ticks before looking
// again. Any applied move resets the backoff.
func (s *Service) balanceLoop() {
	t := time.NewTicker(s.cfg.RebalanceEvery)
	defer t.Stop()
	skip, backoff := 0, 0
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			if skip > 0 {
				skip--
				continue
			}
			now := core.Time(0)
			if s.cfg.RebalanceNow != nil {
				// Clamp a misbehaving clock instead of feeding Rebalance a
				// negative instant: the round would error and kill this
				// goroutine for the service's remaining lifetime over a
				// transient glitch the clock may well recover from.
				if now = s.cfg.RebalanceNow(); now < 0 {
					now = 0
				}
			}
			rep, err := s.RebalanceAll(now)
			if err != nil {
				return // only ErrClosed reaches here: the service is going down
			}
			if rep.Before > s.cfg.RebalanceThreshold && rep.Applied == 0 {
				backoff = min(64, backoff*2+1)
				skip = backoff
				s.journal.Record(flight.Warn, "rebal", -1, "balancer backing off: imbalanced but no movable work",
					flight.KV{K: "skip_ticks", V: fmt.Sprint(backoff)},
					flight.KV{K: "imbalance", V: fmt.Sprintf("%.3f", rep.Before)})
			} else {
				if backoff > 0 {
					s.journal.Record(flight.Info, "rebal", -1, "balancer backoff reset")
				}
				backoff = 0
			}
			s.balBackoff.Store(int64(backoff))
		}
	}
}
