// Package sched implements the family of scheduling algorithms analysed by
// the paper, all reservation-aware:
//
//   - LSRC — list scheduling with resource constraints (Garey & Graham),
//     the algorithm whose guarantees the paper proves. Identical to the most
//     aggressive back-filling variant (§2.2): at every decision instant any
//     queued job that fits is started, regardless of queue position.
//   - FCFS — first-come-first-served with head-of-line blocking: a job never
//     starts before the job submitted ahead of it has started (§2.2).
//   - Conservative back-filling — every job is placed, in submission order,
//     at the earliest instant that does not delay any previously placed job.
//   - EASY back-filling — FCFS plus a single shadow reservation for the head
//     job; later jobs may jump the queue only if they do not delay the head.
//   - Shelf packing — the conclusion's "partition on shelves" direction:
//     NFDH/FFDH-style shelves placed around the reservations.
//
// Placement semantics are shared by every policy: a job may start at t only
// if its full window [t, t+p) has q processors free, accounting for all
// advance reservations — schedulers know reservations in advance and must
// never collide with one.
package sched

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/profile"

	// Ensure the "tree" capacity backend is registered so every scheduler
	// (and ByNameOn) can be parameterised with Backend: "tree".
	_ "repro/internal/restree"
)

// Scheduler is a policy that turns an instance into a complete schedule.
type Scheduler interface {
	// Name identifies the policy (used in experiment tables).
	Name() string
	// Schedule computes a feasible schedule for the instance. The instance
	// is not modified. Implementations return ErrStuck if some job can
	// never be placed (possible only with infinite reservations).
	Schedule(inst *core.Instance) (*core.Schedule, error)
}

// Errors returned by schedulers.
var (
	// ErrStuck reports that a job can never be started (the availability
	// left by reservations never reaches the job's width for its duration).
	ErrStuck = errors.New("sched: job can never be scheduled")
	// ErrInvalid reports an invalid instance.
	ErrInvalid = errors.New("sched: invalid instance")
)

// prep validates the instance and builds the initial availability index
// (m minus reservations: the U validation built, committed by
// profile.CommitUnavailability) on the named capacity backend ("" selects
// the default array Timeline; "tree" selects the restree leaf index —
// identical results, different asymptotics).
func prep(inst *core.Instance, backend string) (profile.CapacityIndex, error) {
	u, err := inst.ValidUnavailability()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	// A bad backend name is a configuration error, not an instance error:
	// surface it as-is rather than wrapped in ErrInvalid.
	tl, err := profile.NewIndex(backend, inst.M)
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	if err := profile.CommitUnavailability(tl, u); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return tl, nil
}

// stuckErr formats an ErrStuck for the given job.
func stuckErr(j core.Job) error {
	return fmt.Errorf("%w: job %d (q=%d, p=%v)", ErrStuck, j.ID, j.Procs, j.Len)
}
