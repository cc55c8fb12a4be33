package workload

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/rng"
)

// SynthConfig parameterises the synthetic workload generator. The defaults
// (zero values replaced by Normalize) follow the empirical regularities of
// Parallel Workloads Archive traces: widths biased to powers of two,
// runtimes log-uniform over three decades, Poisson arrivals.
type SynthConfig struct {
	// M is the machine size.
	M int
	// N is the number of jobs to draw.
	N int
	// MinRun and MaxRun bound runtimes (log-uniform). Defaults 10 and
	// 10000.
	MinRun, MaxRun core.Time
	// PowerOfTwoFrac is the fraction of jobs with power-of-two widths.
	// Default 0.75.
	PowerOfTwoFrac float64
	// SerialFrac is the fraction of single-processor jobs. Default 0.25.
	SerialFrac float64
	// MeanInterArrival is the mean of the exponential inter-arrival time.
	// Default MaxRun/max(N,1) · 4 (light load); set explicitly for heavy
	// load studies.
	MeanInterArrival float64
	// MaxWidthFrac caps job width as a fraction of M. Default 1.0.
	MaxWidthFrac float64
	// DailyCycle, when positive, modulates the arrival intensity with a
	// sinusoidal day/night pattern of the given period (in ticks):
	// arrivals are produced by thinning a Poisson stream so the rate at
	// phase φ is proportional to 1 + DailyAmplitude·sin(2πφ). Production
	// traces show exactly this diurnal shape.
	DailyCycle core.Time
	// DailyAmplitude in [0,1] scales the modulation; default 0.8 when
	// DailyCycle is set.
	DailyAmplitude float64
}

// Normalize fills defaulted fields and validates; it returns the effective
// config.
func (c SynthConfig) Normalize() (SynthConfig, error) {
	if c.M < 1 || c.N < 0 {
		return c, fmt.Errorf("workload: invalid SynthConfig: M=%d N=%d", c.M, c.N)
	}
	if c.MinRun <= 0 {
		c.MinRun = 10
	}
	if c.MaxRun <= 0 {
		c.MaxRun = 10000
	}
	if c.MaxRun < c.MinRun {
		return c, fmt.Errorf("workload: MaxRun %v < MinRun %v", c.MaxRun, c.MinRun)
	}
	if c.PowerOfTwoFrac == 0 {
		c.PowerOfTwoFrac = 0.75
	}
	if c.SerialFrac == 0 {
		c.SerialFrac = 0.25
	}
	if c.MaxWidthFrac <= 0 || c.MaxWidthFrac > 1 {
		c.MaxWidthFrac = 1
	}
	if c.MeanInterArrival <= 0 {
		c.MeanInterArrival = float64(c.MaxRun) / float64(max(c.N, 1)) * 4
	}
	if c.DailyCycle > 0 {
		if c.DailyAmplitude == 0 {
			c.DailyAmplitude = 0.8
		}
		if c.DailyAmplitude < 0 || c.DailyAmplitude > 1 {
			return c, fmt.Errorf("workload: DailyAmplitude %v outside [0,1]", c.DailyAmplitude)
		}
	}
	return c, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Synthetic draws a workload of arrivals. The generator is deterministic
// given (r state, cfg).
func Synthetic(r *rng.PCG, cfg SynthConfig) ([]Arrival, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	maxQ := int(cfg.MaxWidthFrac * float64(cfg.M))
	if maxQ < 1 {
		maxQ = 1
	}
	var out []Arrival
	var clock float64
	for i := 0; i < cfg.N; i++ {
		clock += r.Expo(cfg.MeanInterArrival)
		if cfg.DailyCycle > 0 {
			// Thinning: draw candidate instants at the peak rate and keep
			// each with probability rate(t)/peak; rejected candidates just
			// advance the clock.
			for {
				phase := math.Mod(clock, float64(cfg.DailyCycle)) / float64(cfg.DailyCycle)
				rate := 1 + cfg.DailyAmplitude*math.Sin(2*math.Pi*phase)
				peak := 1 + cfg.DailyAmplitude
				if r.Float64() < rate/peak {
					break
				}
				clock += r.Expo(cfg.MeanInterArrival)
			}
		}
		q := 1
		switch {
		case r.Bool(cfg.SerialFrac):
			q = 1
		case r.Bool(cfg.PowerOfTwoFrac):
			maxExp := 0
			for 1<<(maxExp+1) <= maxQ {
				maxExp++
			}
			q = 1 << r.IntRange(0, maxExp)
		default:
			q = r.IntRange(1, maxQ)
		}
		run := core.Time(r.LogUniform(float64(cfg.MinRun), float64(cfg.MaxRun)))
		if run < cfg.MinRun {
			run = cfg.MinRun
		}
		if run > cfg.MaxRun {
			run = cfg.MaxRun
		}
		out = append(out, Arrival{
			Job: core.Job{ID: i, Procs: q, Len: run},
			At:  core.Time(clock),
		})
	}
	return out, nil
}

// SyntheticInstance draws a synthetic workload and flattens it to an
// offline instance (arrival times dropped).
func SyntheticInstance(r *rng.PCG, cfg SynthConfig) (*core.Instance, error) {
	arr, err := Synthetic(r, cfg)
	if err != nil {
		return nil, err
	}
	inst := &core.Instance{Name: fmt.Sprintf("synth-m%d-n%d", cfg.M, cfg.N), M: cfg.M}
	for _, a := range arr {
		inst.Jobs = append(inst.Jobs, a.Job)
	}
	return inst, nil
}

// ReservationStream draws nRes reservations with peak unavailability at
// most m − max(1, floor(alpha·m)), spread over the given horizon — the
// shape of an advance-reservation feature in a production batch system
// with the §4.2 admission rule. That bound is floor((1-alpha)·m) only when
// alpha·m is an integer; otherwise the stream is guaranteed α′-restricted
// only for α′ = floor(alpha·m)/m < alpha, the floor resd's shards keep
// too. It is AlphaReservations with lengths up to horizon/4+1, so its
// memory is O(nRes), whatever the horizon.
func ReservationStream(r *rng.PCG, m int, alpha float64, nRes int, horizon core.Time) []core.Reservation {
	if m < 1 || alpha <= 0 || alpha > 1 || horizon < 1 {
		panic("workload: invalid ReservationStream parameters")
	}
	maxU := m - max(1, int(alpha*float64(m)))
	return AlphaReservations(r, maxU, nRes, horizon, horizon/4+1)
}

// AlphaReservations is the one α-restricted reservation sampler, behind
// ReservationStream and instances.RandomAlpha. It draws nRes candidates,
// each a width q in [1, maxU], a start in [0, horizon) and a length in
// [1, maxLen], and keeps, in draw order, those that still fit beside the
// ones kept before it under a capacity of maxU, so the unavailability they
// make never exceeds maxU. The fit is tested with CanPlace on a
// profile.Timeline, whose breakpoints are the kept reservations' ends:
// time and memory go with nRes, not with the horizon. maxU <= 0 draws
// nothing.
func AlphaReservations(r *rng.PCG, maxU, nRes int, horizon, maxLen core.Time) []core.Reservation {
	if maxU <= 0 {
		return nil
	}
	tl := profile.New(maxU)
	var out []core.Reservation
	for k := 0; k < nRes; k++ {
		q := r.IntRange(1, maxU)
		start := core.Time(r.Int63n(int64(horizon)))
		l := core.Time(r.Int63Range(1, int64(maxLen)))
		if !tl.CanPlace(start, l, q) {
			continue
		}
		if err := tl.Commit(start, l, q); err != nil {
			panic(err) // CanPlace has just said it fits
		}
		out = append(out, core.Reservation{ID: len(out), Procs: q, Start: start, Len: l})
	}
	return out
}
