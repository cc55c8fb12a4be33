package instances

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/workload"
)

// tickReservations is the α-restricted sampler on a per-tick grid, kept
// as an oracle: the unavailability is tracked on an array of ticks (so the
// memory is O(horizon + maxLen)) and a candidate is kept when every tick of
// its window has room.
func tickReservations(r *rng.PCG, maxU, nRes int, horizon, maxLen core.Time) []core.Reservation {
	if maxU <= 0 || nRes == 0 {
		return nil
	}
	used := make([]int, int(horizon+maxLen)+1)
	var out []core.Reservation
	for k := 0; k < nRes; k++ {
		q := r.IntRange(1, maxU)
		start := core.Time(r.Int63n(int64(horizon)))
		l := core.Time(r.Int63Range(1, int64(maxLen)))
		ok := true
		for t := start; t < start+l; t++ {
			if used[t]+q > maxU {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for t := start; t < start+l; t++ {
			used[t] += q
		}
		out = append(out, core.Reservation{ID: len(out), Procs: q, Start: start, Len: l})
	}
	return out
}

// tickAlpha is RandomAlpha over the tick-grid oracle.
func tickAlpha(r *rng.PCG, cfg AlphaConfig) *core.Instance {
	maxQ := max(1, int(cfg.Alpha*float64(cfg.M)))
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
	maxResLen := cfg.maxResLen
	if maxResLen <= 0 {
		maxResLen = cfg.Horizon/4 + 1
	}
	inst.Res = tickReservations(r, cfg.M-maxQ, cfg.NRes, cfg.Horizon, maxResLen)
	return inst
}

// alphaCase is one parameter set both entry points are drawn with.
type alphaCase struct {
	name      string
	m         int
	alpha     float64
	nRes      int
	horizon   core.Time
	maxResLen core.Time // RandomAlpha only; 0 is its default
}

// maxUOf is floor((1-α)m), or m-1 when floor(αm) is 0.
func (c alphaCase) maxUOf() int { return c.m - max(1, int(c.alpha*float64(c.m))) }

var alphaCases = []alphaCase{
	{name: "half", m: 32, alpha: 0.5, nRes: 20, horizon: 1000},
	{name: "dense", m: 64, alpha: 0.25, nRes: 200, horizon: 500},
	{name: "floor-alpha-m-zero", m: 3, alpha: 0.2, nRes: 30, horizon: 100},
	{name: "alpha-one", m: 16, alpha: 1, nRes: 30, horizon: 100},
	{name: "max-res-len", m: 40, alpha: 0.3, nRes: 50, horizon: 300, maxResLen: 7},
	{name: "long-max-res-len", m: 40, alpha: 0.6, nRes: 50, horizon: 50, maxResLen: 400},
	{name: "no-reservations", m: 32, alpha: 0.5, nRes: 0, horizon: 1000},
	{name: "horizon-one", m: 8, alpha: 0.5, nRes: 10, horizon: 1},
	{name: "one-processor", m: 1, alpha: 0.5, nRes: 10, horizon: 100},
}

// TestAlphaSamplerMatchesTickOracle: ReservationStream and RandomAlpha draw
// exactly what the tick-grid sampler drew, seed by seed, and leave the rng
// stream where it left it.
func TestAlphaSamplerMatchesTickOracle(t *testing.T) {
	for _, c := range alphaCases {
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 200; seed++ {
				if c.maxResLen == 0 {
					got, want := rng.New(seed), rng.New(seed)
					res := workload.ReservationStream(got, c.m, c.alpha, c.nRes, c.horizon)
					oracle := tickReservations(want, c.maxUOf(), c.nRes, c.horizon, c.horizon/4+1)
					if !reflect.DeepEqual(res, oracle) {
						t.Fatalf("seed %d: ReservationStream\n got  %v\n want %v", seed, res, oracle)
					}
					if a, b := got.Uint64(), want.Uint64(); a != b {
						t.Fatalf("seed %d: ReservationStream left the rng at %x, the oracle at %x", seed, a, b)
					}
					checkUnderMaxU(t, seed, res, c.maxUOf())
				}
				cfg := AlphaConfig{M: c.m, N: 5, Alpha: c.alpha, MaxLen: 9,
					NRes: c.nRes, Horizon: c.horizon, maxResLen: c.maxResLen}
				got, want := rng.New(seed), rng.New(seed)
				inst, oracle := RandomAlpha(got, cfg), tickAlpha(want, cfg)
				if !reflect.DeepEqual(inst, oracle) {
					t.Fatalf("seed %d: RandomAlpha\n got  %+v\n want %+v", seed, inst, oracle)
				}
				if a, b := got.Uint64(), want.Uint64(); a != b {
					t.Fatalf("seed %d: RandomAlpha left the rng at %x, the oracle at %x", seed, a, b)
				}
				checkUnderMaxU(t, seed, inst.Res, c.maxUOf())
				if c.alpha == 1 && len(inst.Res) != 0 {
					t.Fatalf("seed %d: α = 1 drew %d reservations", seed, len(inst.Res))
				}
			}
		})
	}
}

func checkUnderMaxU(t *testing.T, seed uint64, res []core.Reservation, maxU int) {
	t.Helper()
	if u := core.UnavailabilityOf(res).Max(); u > maxU {
		t.Fatalf("seed %d: unavailability %d exceeds maxU %d", seed, u, maxU)
	}
}

// TestAlphaSamplerFarHorizon: a 2⁴⁰-tick horizon costs what its
// reservations cost. The tick grid would have asked for 16 TiB here, so
// the oracle is not run; the bound is on the bytes the draws allocate.
func TestAlphaSamplerFarHorizon(t *testing.T) {
	const horizon = core.Time(1) << 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := workload.ReservationStream(rng.New(7), 64, 0.5, 200, horizon)
	inst := RandomAlpha(rng.New(8), AlphaConfig{M: 64, N: 10, Alpha: 0.5, MaxLen: 10, NRes: 200, Horizon: horizon})
	runtime.ReadMemStats(&after)
	if len(res) == 0 || len(inst.Res) == 0 {
		t.Fatalf("drew %d and %d reservations, want some of each", len(res), len(inst.Res))
	}
	checkUnderMaxU(t, 7, res, 32)
	checkUnderMaxU(t, 8, inst.Res, 32)
	if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
		t.Fatalf("drawing 400 reservations over 2^40 ticks allocated %d B", b)
	}
}
