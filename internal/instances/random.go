package instances

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/workload"
)

// RigidConfig parameterises RandomRigid.
type RigidConfig struct {
	// M is the machine size.
	M int
	// N is the number of jobs.
	N int
	// MaxLen bounds job durations (uniform in [1, MaxLen]).
	MaxLen core.Time
	// MaxProcs bounds job widths (uniform in [1, min(MaxProcs, M)]);
	// 0 means M.
	MaxProcs int
	// PowerOfTwo biases widths to powers of two (the empirical shape of
	// cluster workloads) instead of uniform.
	PowerOfTwo bool
}

// RandomRigid generates a random RIGIDSCHEDULING instance (no
// reservations).
func RandomRigid(r *rng.PCG, cfg RigidConfig) *core.Instance {
	if cfg.M < 1 || cfg.N < 0 || cfg.MaxLen < 1 {
		panic("instances: invalid RigidConfig")
	}
	maxQ := cfg.MaxProcs
	if maxQ <= 0 || maxQ > cfg.M {
		maxQ = cfg.M
	}
	inst := &core.Instance{Name: fmt.Sprintf("rigid-m%d-n%d", cfg.M, cfg.N), M: cfg.M}
	for i := 0; i < cfg.N; i++ {
		q := 0
		if cfg.PowerOfTwo {
			// Choose an exponent uniformly among powers <= maxQ, then jiggle
			// within +/-25% to avoid a pure lattice.
			maxExp := 0
			for 1<<(maxExp+1) <= maxQ {
				maxExp++
			}
			q = 1 << r.IntRange(0, maxExp)
			if q > 1 && r.Bool(0.3) {
				q += r.IntRange(-q/4, q/4)
			}
			if q < 1 {
				q = 1
			}
			if q > maxQ {
				q = maxQ
			}
		} else {
			q = r.IntRange(1, maxQ)
		}
		inst.Jobs = append(inst.Jobs, core.Job{
			ID:    i,
			Procs: q,
			Len:   core.Time(r.Int63Range(1, int64(cfg.MaxLen))),
		})
	}
	return inst
}

// AlphaConfig parameterises RandomAlpha.
type AlphaConfig struct {
	// M is the machine size.
	M int
	// N is the number of jobs.
	N int
	// Alpha is the restriction parameter of §4.2: reservations never hold
	// more than (1-Alpha)·M processors and jobs never need more than
	// Alpha·M.
	Alpha float64
	// MaxLen bounds job durations.
	MaxLen core.Time
	// NRes is the number of reservation attempts.
	NRes int
	// Horizon bounds reservation start times.
	Horizon core.Time
	// MaxResLen bounds reservation lengths; 0 means Horizon/4+1.
	MaxResLen core.Time
}

// RandomAlpha generates a random α′-RESASCHEDULING instance: job widths
// are capped at floor(α·m) (at least 1) and the reservation set is drawn by
// workload.AlphaReservations, the rejection sampler ReservationStream
// shares, so its unavailability never exceeds m − floor(α·m) and its
// memory is O(NRes), whatever the horizon. That is floor((1-α)·m) only when
// α·m is an integer; otherwise U may exceed (1−α)·m, and the instance is
// guaranteed α′-restricted only for α′ = floor(α·m)/m < α. Instance.Alpha
// reports the α an instance has.
func RandomAlpha(r *rng.PCG, cfg AlphaConfig) *core.Instance {
	if cfg.M < 1 || cfg.Alpha <= 0 || cfg.Alpha > 1 || cfg.MaxLen < 1 || cfg.Horizon < 1 {
		panic("instances: invalid AlphaConfig")
	}
	maxQ := int(cfg.Alpha * float64(cfg.M))
	if maxQ < 1 {
		maxQ = 1
	}
	maxU := cfg.M - maxQ // floor((1-α)m) when αm is integral, above (1-α)m otherwise
	inst := &core.Instance{
		Name: fmt.Sprintf("alpha-m%d-n%d-a%.3f", cfg.M, cfg.N, cfg.Alpha),
		M:    cfg.M,
	}
	for i := 0; i < cfg.N; i++ {
		inst.Jobs = append(inst.Jobs, core.Job{
			ID:    i,
			Procs: r.IntRange(1, maxQ),
			Len:   core.Time(r.Int63Range(1, int64(cfg.MaxLen))),
		})
	}
	maxResLen := cfg.MaxResLen
	if maxResLen <= 0 {
		maxResLen = cfg.Horizon/4 + 1
	}
	inst.Res = workload.AlphaReservations(r, maxU, cfg.NRes, cfg.Horizon, maxResLen)
	return inst
}

// StaircaseConfig parameterises RandomStaircase.
type StaircaseConfig struct {
	// M is the machine size.
	M int
	// N is the number of jobs.
	N int
	// MaxLen bounds job durations.
	MaxLen core.Time
	// Steps is the number of staircase levels (reservations all starting
	// at 0 with decreasing coverage).
	Steps int
	// MaxStepLen bounds each reservation's length.
	MaxStepLen core.Time
	// FreeProcs keeps at least this many processors always available
	// (defaults to 1 so LSRC can always make progress early).
	FreeProcs int
}

// RandomStaircase generates an instance with non-increasing reservations —
// the Proposition 1 regime. All reservations start at time 0; releases at
// random times produce a non-increasing unavailability staircase.
func RandomStaircase(r *rng.PCG, cfg StaircaseConfig) *core.Instance {
	if cfg.M < 1 || cfg.MaxLen < 1 || cfg.Steps < 0 || cfg.MaxStepLen < 1 {
		panic("instances: invalid StaircaseConfig")
	}
	free := cfg.FreeProcs
	if free <= 0 {
		free = 1
	}
	if free > cfg.M {
		free = cfg.M
	}
	inst := &core.Instance{
		Name: fmt.Sprintf("staircase-m%d-n%d", cfg.M, cfg.N),
		M:    cfg.M,
	}
	budget := cfg.M - free
	for k := 0; k < cfg.Steps && budget > 0; k++ {
		q := r.IntRange(1, budget)
		budget -= q
		inst.Res = append(inst.Res, core.Reservation{
			ID:    len(inst.Res),
			Procs: q,
			Start: 0,
			Len:   core.Time(r.Int63Range(1, int64(cfg.MaxStepLen))),
		})
	}
	for i := 0; i < cfg.N; i++ {
		inst.Jobs = append(inst.Jobs, core.Job{
			ID:    i,
			Procs: r.IntRange(1, cfg.M),
			Len:   core.Time(r.Int63Range(1, int64(cfg.MaxLen))),
		})
	}
	return inst
}
