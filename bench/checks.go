package main

import (
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/lower"
	"repro/internal/profile"
	"repro/internal/resd"
	"repro/internal/verify"
)

// checkReservation holds one admission answer to its request: the start
// lies in [Ready, Deadline], the shape is the one asked for, and the
// width leaves the α floor.
func checkReservation(req resd.Request, rv resd.Reservation, m, floor int) error {
	switch {
	case rv.Start < req.Ready:
		return fmt.Errorf("reservation %#x starts at %v before ready %v", uint64(rv.ID), rv.Start, req.Ready)
	case rv.Start > req.Deadline:
		return fmt.Errorf("reservation %#x starts at %v after deadline %v", uint64(rv.ID), rv.Start, req.Deadline)
	case rv.Procs != req.Q || rv.Dur != req.Dur:
		return fmt.Errorf("reservation %#x is %dx%v, asked for %dx%v", uint64(rv.ID), rv.Procs, rv.Dur, req.Q, req.Dur)
	case rv.Procs > m-floor:
		return fmt.Errorf("reservation %#x holds %d of %d processors, α floor is %d", uint64(rv.ID), rv.Procs, m, floor)
	}
	return nil
}

// checkFloor is the paper's rule on one shard: at least ⌊αM⌋ processors
// free of reservations at every breakpoint.
func checkFloor(idx profile.CapacityIndex, shard, floor int) error {
	for _, t := range append([]core.Time{0}, idx.Breakpoints()...) {
		if free := idx.AvailableAt(t); free < floor {
			return fmt.Errorf("shard %d has %d processors free at t=%v, α floor is %d", shard, free, t, floor)
		}
	}
	return nil
}

// load is the part of the shard summaries that admit/cancel pairs must
// leave where preload put it.
type load struct {
	Active int
	Area   int64
}

func loadOf(stats []resd.ShardStats) load {
	var l load
	for _, s := range stats {
		l.Active += s.Active
		l.Area += s.CommittedArea
	}
	return l
}

// checkRestored fails when a cancel went missing: the live count and the
// committed area differ from their post-preload values.
func checkRestored(base, now load) error {
	if base != now {
		return fmt.Errorf("after the final cancels %d reservations hold area %d; preload left %d holding %d",
			now.Active, now.Area, base.Active, base.Area)
	}
	return nil
}

// checkQuiesced runs the end-of-workload checks on a quiet service: the
// α floor on every shard, the load restored, and with quotas the ledger
// equal to the live area.
func checkQuiesced(svc *resd.Service, base load) error {
	for i := 0; i < svc.Shards(); i++ {
		snap, err := svc.Snapshot(i)
		if err != nil {
			return fmt.Errorf("snapshot shard %d: %w", i, err)
		}
		if err := checkFloor(snap, i, svc.Floor()); err != nil {
			return err
		}
	}
	now := loadOf(svc.Stats())
	if err := checkRestored(base, now); err != nil {
		return err
	}
	if q := svc.Quotas(); q != nil {
		var used int64
		for _, u := range q.Tenants() {
			used += u.Used
		}
		if used != now.Area {
			return fmt.Errorf("quota ledger holds area %d, live reservations hold %d", used, now.Area)
		}
	}
	return nil
}

// dumpAll is every shard's live reservations, the recovery oracle's view.
func dumpAll(svc *resd.Service) ([][]resd.Reservation, error) {
	out := make([][]resd.Reservation, svc.Shards())
	for i := range out {
		d, err := svc.Dump(i)
		if err != nil {
			return nil, fmt.Errorf("dump shard %d: %w", i, err)
		}
		out[i] = d
	}
	return out, nil
}

// checkRecovered fails unless the reopened service dumps exactly what
// the closed one did.
func checkRecovered(closed, reopened [][]resd.Reservation) error {
	if !reflect.DeepEqual(closed, reopened) {
		return fmt.Errorf("reopened service dumps differently from the one that wrote the log")
	}
	return nil
}

// checkWireStats fails unless the stats served over the wire are the
// service's own.
func checkWireStats(wire, local []resd.ShardStats) error {
	if !reflect.DeepEqual(wire, local) {
		return fmt.Errorf("Client.Stats %+v disagrees with Service.Stats %+v", wire, local)
	}
	return nil
}

// checkSchedule verifies one LSRC schedule and Proposition 3's bound
// Cmax <= (2/α)·C*max, taken against the instance's lower bound.
func checkSchedule(inst *core.Instance, s *core.Schedule, resAlpha float64) (ratio float64, err error) {
	if err := verify.Verify(s); err != nil {
		return 0, err
	}
	lb := lower.Best(inst)
	ratio = float64(s.Makespan()) / float64(lb)
	if ratio > 2/resAlpha {
		return ratio, fmt.Errorf("Cmax %v exceeds (2/α)·%v, α=%v", s.Makespan(), lb, resAlpha)
	}
	return ratio, nil
}
