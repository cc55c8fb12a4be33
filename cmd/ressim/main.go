// Command ressim drives the discrete-event cluster simulator: a workload
// (an SWF trace file or a synthetic draw) arrives over time at an
// m-processor cluster with an α-restricted reservation stream, and the
// online policies (FCFS, EASY back-filling, greedy list scheduling) are
// compared on makespan, utilisation, waiting time and bounded slowdown.
//
// Usage:
//
//	ressim -m 64 -n 300 -seed 7                 # synthetic workload
//	ressim -swf trace.swf [-m 128]              # real trace
//	ressim -m 64 -n 300 -alpha 0.5 -nres 12     # with reservations
//	ressim -m 64 -n 300 -backend array          # the reference index; same table
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflag"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func run() error {
	m := flag.Int("m", 64, "machine size (required for -swf without MaxProcs header)")
	n := flag.Int("n", 200, "synthetic job count")
	seed := flag.Uint64("seed", 1, "synthetic generator seed")
	swf := flag.String("swf", "", "SWF trace file (overrides synthetic generation)")
	alpha := flag.Float64("alpha", 0.5, "reservation admission rule (α)")
	nres := flag.Int("nres", 0, "number of reservations to draw")
	meanIat := flag.Float64("iat", 0, "mean inter-arrival time (0 = auto)")
	backend := flag.String("backend", "tree", "capacity index: tree (internal/restree) or array (profile.Timeline, the reference); schedules are identical")
	flag.Parse()

	// Fail malformed flags here with a named message; downstream the same
	// values would panic (ReservationStream) or quietly generate garbage.
	if err := cliflag.First(
		cliflag.Positive("m", *m),
		cliflag.Positive("n", *n),
		cliflag.NonNegative("nres", *nres),
		cliflag.Unit("alpha", *alpha),
		cliflag.NonNegativeF("iat", *meanIat),
	); err != nil {
		return err
	}
	if *nres > 0 {
		if err := cliflag.PositiveUnit("alpha", *alpha); err != nil {
			return fmt.Errorf("%w (α must be positive when -nres > 0)", err)
		}
	}

	var arrivals []workload.Arrival
	machine := *m
	if *swf != "" {
		f, err := os.Open(*swf)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := workload.ParseSWF(f)
		if err != nil {
			return err
		}
		if tr.MaxProcs > 0 {
			machine = tr.MaxProcs
		}
		arrivals, err = tr.Arrivals(machine)
		if err != nil {
			return err
		}
	} else {
		r := rng.New(*seed)
		var err error
		arrivals, err = workload.Synthetic(r, workload.SynthConfig{
			M: machine, N: *n, MeanInterArrival: *meanIat, MaxWidthFrac: *alpha,
		})
		if err != nil {
			return err
		}
	}

	var reservations []core.Reservation
	if *nres > 0 {
		var horizon core.Time = 1
		for _, a := range arrivals {
			if end := a.At + a.Job.Len; end > horizon {
				horizon = end
			}
		}
		reservations = workload.ReservationStream(rng.New(*seed^0xBEEF), machine, *alpha, *nres, horizon)
	}

	fmt.Printf("simulating m=%d, %d jobs, %d reservations (backend %s)\n\n",
		machine, len(arrivals), len(reservations), *backend)
	table := stats.NewTable("policy", "makespan", "util", "eff-util", "avg wait", "max wait", "avg BSLD")
	for _, p := range []sim.Policy{sim.FCFSPolicy{}, sim.EASYPolicy{}, sim.GreedyPolicy{}} {
		res, err := sim.RunOn(*backend, machine, reservations, arrivals, p)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name(), err)
		}
		mt := res.Metrics
		table.AddRow(mt.Policy, int64(mt.Makespan),
			fmt.Sprintf("%.3f", mt.Utilization),
			fmt.Sprintf("%.3f", mt.EffectiveUtilization),
			fmt.Sprintf("%.1f", mt.AvgWait), int64(mt.MaxWait),
			fmt.Sprintf("%.2f", mt.AvgBoundedSlowdown))
	}
	fmt.Print(table.String())
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ressim:", err)
		os.Exit(1)
	}
}
